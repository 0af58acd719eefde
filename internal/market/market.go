// Package market models the remote side of an appstore: servers that host
// APKs and their metadata (content hashes), addressed by URL. A Mux routes
// Download Manager fetches to the right server by host, so one device can
// talk to Google Play, Amazon, Xiaomi and an attacker-controlled CDN at
// once.
package market

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/sig"
)

// Errors returned by servers.
var (
	ErrNotFound = errors.New("market: no such resource")
	ErrNoServer = errors.New("market: no server for host")
)

// Listing is one published app: the APK plus the metadata an installer
// downloads alongside it.
type Listing struct {
	Package     string
	VersionCode int
	URL         string
	SizeBytes   int64
	// ContentHash is the digest of the encoded APK — what installers
	// verify after download.
	ContentHash sig.Digest
	// ManifestHash is what installPackageWithVerification-style callers
	// pass to the PMS.
	ManifestHash sig.Digest
	// encoded is the immutable buffer ContentHash was computed from (see
	// IsContent).
	encoded []byte
}

// IsContent reports whether data is the very buffer the listing's
// ContentHash was computed from: the same first byte and the same length.
// The buffer is immutable, so such data needs no re-hash. Equal bytes held
// anywhere else (a copy, a fresh Fetch of the URL, which a re-publish can
// repoint) do not count.
func (l Listing) IsContent(data []byte) bool {
	return len(data) > 0 && len(data) == len(l.encoded) && &data[0] == &l.encoded[0]
}

// Server hosts one store's catalog.
type Server struct {
	host     string
	byURL    map[string][]byte
	listings map[string]Listing // by package name (latest version wins)
}

// NewServer creates a store server for host (e.g. "play.google.com").
func NewServer(host string) *Server {
	return &Server{
		host:     host,
		byURL:    make(map[string][]byte),
		listings: make(map[string]Listing),
	}
}

// Host returns the server's hostname.
func (s *Server) Host() string { return s.host }

// Publish adds an APK to the catalog and returns its listing.
func (s *Server) Publish(a *apk.APK) Listing {
	encoded := a.Encode()
	l := Listing{
		Package:      a.Manifest.Package,
		VersionCode:  a.Manifest.VersionCode,
		URL:          fmt.Sprintf("https://%s/apps/%s-v%d.apk", s.host, a.Manifest.Package, a.Manifest.VersionCode),
		SizeBytes:    int64(len(encoded)),
		ContentHash:  a.EncodedDigest(),
		ManifestHash: a.ManifestDigest(),
		encoded:      encoded,
	}
	s.byURL[l.URL] = encoded
	if prev, ok := s.listings[l.Package]; !ok || l.VersionCode >= prev.VersionCode {
		s.listings[l.Package] = l
	}
	return l
}

// PublishRaw hosts arbitrary bytes (non-APK content, e.g. metadata or an
// attacker's bait file) at /<name> and returns the URL.
func (s *Server) PublishRaw(name string, data []byte) string {
	url := fmt.Sprintf("https://%s/%s", s.host, name)
	s.byURL[url] = append([]byte(nil), data...)
	return url
}

// Lookup finds the latest listing for a package.
func (s *Server) Lookup(pkg string) (Listing, bool) {
	l, ok := s.listings[pkg]
	return l, ok
}

// Catalog lists every published package, sorted.
func (s *Server) Catalog() []Listing {
	pkgs := make([]string, 0, len(s.listings))
	for pkg := range s.listings {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	out := make([]Listing, 0, len(pkgs))
	for _, pkg := range pkgs {
		out = append(out, s.listings[pkg])
	}
	return out
}

// Fetch implements dm.Fetcher for this server's URLs.
func (s *Server) Fetch(url string) ([]byte, error) {
	data, ok := s.byURL[url]
	if !ok {
		return nil, fmt.Errorf("%s: %w", url, ErrNotFound)
	}
	// The hosted bytes are immutable once published; callers (DM and
	// installer download loops) only read the slice while copying it onto
	// the device, so no defensive copy is taken.
	return data, nil
}

// Mux routes fetches to servers by URL host.
type Mux struct {
	servers map[string]*Server
	// retired holds servers dropped by Reset, keyed by host, so a sweep
	// that re-registers the same store every schedule reuses the Server
	// (and its two maps, cleared) instead of allocating fresh ones.
	// Retired servers are invisible to Server and Fetch: a host that the
	// current scenario never registered still resolves to ErrNoServer.
	retired map[string]*Server
}

// NewMux creates an empty router.
func NewMux() *Mux {
	return &Mux{
		servers: make(map[string]*Server),
		retired: make(map[string]*Server),
	}
}

// Reset drops every registered server (the next scenario publishes its own).
func (m *Mux) Reset() {
	for host, s := range m.servers {
		clear(s.byURL)
		clear(s.listings)
		m.retired[host] = s
		delete(m.servers, host)
	}
}

// Acquire returns the registered server for host, creating and registering
// one (recycled from a previous scenario when possible) if none exists.
func (m *Mux) Acquire(host string) *Server {
	if s, ok := m.servers[host]; ok {
		return s
	}
	s, ok := m.retired[host]
	if ok {
		delete(m.retired, host)
	} else {
		s = NewServer(host)
	}
	m.servers[host] = s
	return s
}

// Add registers a server. A server with the same host replaces the old one.
func (m *Mux) Add(s *Server) { m.servers[s.Host()] = s }

// Server returns the server for host.
func (m *Mux) Server(host string) (*Server, bool) {
	s, ok := m.servers[host]
	return s, ok
}

// Fetch implements dm.Fetcher, routing by host.
func (m *Mux) Fetch(url string) ([]byte, error) {
	host, err := hostOf(url)
	if err != nil {
		return nil, err
	}
	s, ok := m.servers[host]
	if !ok {
		return nil, fmt.Errorf("%s: %w", host, ErrNoServer)
	}
	return s.Fetch(url)
}

func hostOf(url string) (string, error) {
	rest, ok := strings.CutPrefix(url, "https://")
	if !ok {
		rest, ok = strings.CutPrefix(url, "http://")
	}
	if !ok {
		return "", fmt.Errorf("%s: no scheme: %w", url, ErrNotFound)
	}
	host, _, _ := strings.Cut(rest, "/")
	if host == "" {
		return "", fmt.Errorf("%s: no host: %w", url, ErrNotFound)
	}
	return host, nil
}
