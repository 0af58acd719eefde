// Package apk models Android application packages: a ZIP-like archive with
// an AndroidManifest, file entries, a signature block and an
// End-Of-Central-Directory (EOCD) record at the very end of the byte stream.
//
// The EOCD's position matters: the wait-and-see attacker of Section III-B
// detects download completion by polling the tail of the file for it. The
// manifest digest matters separately from the full-content digest because
// installPackageWithVerification and the PackageInstallerActivity verify
// only the manifest — the weakness Section III-B's "Attack on PIA" defeats
// by repackaging with an unchanged manifest.
package apk

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/ghost-installer/gia/internal/sig"
)

// Component types that appear in a manifest.
const (
	ComponentActivity = "activity"
	ComponentReceiver = "receiver"
	ComponentService  = "service"
)

// Errors returned when parsing or validating APKs.
var (
	ErrTruncated    = errors.New("apk: truncated archive (no EOCD record)")
	ErrCorrupt      = errors.New("apk: corrupt archive")
	ErrNotSigned    = errors.New("apk: archive is not signed")
	ErrBadSignature = errors.New("apk: signature verification failed")
)

// eocdMagic mirrors ZIP's end-of-central-directory signature PK\x05\x06.
var eocdMagic = []byte{0x50, 0x4B, 0x05, 0x06}

// eocdSize is magic + 8-byte payload length + full-content digest.
const eocdSize = 4 + 8 + sig.DigestSize

// PermissionDef is a permission declared by an app's manifest.
type PermissionDef struct {
	Name            string `json:"name"`
	ProtectionLevel string `json:"protectionLevel"` // normal|dangerous|signature|signatureOrSystem
}

// Component is an app component declared in the manifest.
type Component struct {
	Type      string `json:"type"` // activity|receiver|service
	Name      string `json:"name"`
	Exported  bool   `json:"exported"`
	GuardedBy string `json:"guardedBy,omitempty"` // permission required of senders
}

// Manifest is the AndroidManifest.xml equivalent.
type Manifest struct {
	Package      string          `json:"package"`
	VersionCode  int             `json:"versionCode"`
	Label        string          `json:"label"`
	Icon         string          `json:"icon"`
	SharedUserID string          `json:"sharedUserId,omitempty"`
	UsesPerms    []string        `json:"usesPermissions,omitempty"`
	DefinesPerms []PermissionDef `json:"definesPermissions,omitempty"`
	Components   []Component     `json:"components,omitempty"`
}

// Uses reports whether the manifest requests the named permission.
func (m Manifest) Uses(perm string) bool {
	for _, p := range m.UsesPerms {
		if p == perm {
			return true
		}
	}
	return false
}

// Defines returns the definition of the named permission, if declared.
func (m Manifest) Defines(perm string) (PermissionDef, bool) {
	for _, d := range m.DefinesPerms {
		if d.Name == perm {
			return d, true
		}
	}
	return PermissionDef{}, false
}

// Component returns the named component, if declared.
func (m Manifest) Component(name string) (Component, bool) {
	for _, c := range m.Components {
		if c.Name == name {
			return c, true
		}
	}
	return Component{}, false
}

// Digest hashes the canonical (JSON) encoding of the manifest. This is the
// value installPackageWithVerification and the PIA check.
func (m Manifest) Digest() sig.Digest {
	data, err := json.Marshal(m)
	if err != nil {
		// Manifest contains only marshalable types; this cannot happen.
		panic(fmt.Sprintf("apk: marshal manifest: %v", err))
	}
	return sig.Sum(data)
}

// APK is a parsed application package. Manifest, Files and Padding may be
// adjusted freely after Build or Decode — but not once Encode (or Size) has
// been called: the encoding is memoized on first use, because scenario
// fixtures encode the same artifact for every device of a sweep.
type APK struct {
	Manifest  Manifest
	Files     map[string][]byte
	Signature sig.Signature
	Padding   int // extra bytes appended before the EOCD to reach a target size

	encodeOnce sync.Once
	encoded    []byte
	digestOnce sync.Once
	digest     sig.Digest
	verified   atomic.Bool
}

// payload is the serialized body of the archive. File contents round-trip
// through JSON's native []byte base64 encoding so arbitrary bytes survive.
type payload struct {
	Manifest  Manifest          `json:"manifest"`
	Files     map[string][]byte `json:"files,omitempty"`
	Signature sig.Signature     `json:"signature"`
	Padding   int               `json:"padding,omitempty"`
}

// Build assembles and signs an APK. Files may be nil.
func Build(m Manifest, files map[string][]byte, key *sig.Key) *APK {
	a := &APK{Manifest: m, Files: cloneFiles(files)}
	a.Signature = key.Sign(a.signingDigest())
	return a
}

// signingDigest covers the manifest and every file entry, in name order.
func (a *APK) signingDigest() sig.Digest {
	var buf bytes.Buffer
	md := a.Manifest.Digest()
	buf.Write(md[:])
	names := make([]string, 0, len(a.Files))
	for name := range a.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		buf.WriteString(name)
		buf.Write(a.Files[name])
	}
	return sig.Sum(buf.Bytes())
}

// VerifySignature checks the embedded signature block against the archive
// content. A repackaged APK signed by a different key still verifies — but
// under the repackager's certificate, which is what signature-continuity
// checks in the PackageManager catch.
func (a *APK) VerifySignature() error {
	if a.Signature.IsZero() {
		return ErrNotSigned
	}
	if !sig.Verify(a.Signature, a.signingDigest()) {
		return ErrBadSignature
	}
	return nil
}

// VerifySignatureShared is VerifySignature for archives that are shared and
// immutable — decode-cache results and memoized scenario fixtures: a
// successful check is memoized so repeated installs of the same image skip
// the digest recomputation. Archives whose Files may still be mutated must
// use VerifySignature, which always recomputes.
func (a *APK) VerifySignatureShared() error {
	if a.verified.Load() {
		return nil
	}
	if err := a.VerifySignature(); err != nil {
		return err
	}
	a.verified.Store(true)
	return nil
}

// Cert returns the signer's certificate.
func (a *APK) Cert() sig.Certificate { return a.Signature.Cert }

// ManifestDigest returns the manifest-only digest.
func (a *APK) ManifestDigest() sig.Digest { return a.Manifest.Digest() }

// Encode serializes the APK. The EOCD record — magic, payload length and
// full-content digest — is the final eocdSize bytes of the output. The
// result is memoized (and must not be written to): an APK is immutable
// once encoded.
func (a *APK) Encode() []byte {
	a.encodeOnce.Do(func() { a.encoded = a.encode() })
	return a.encoded
}

// EncodedDigest returns ContentDigest(a.Encode()), memoized under the same
// immutability contract as Encode. Markets hash every listing they publish;
// a sweep republishes the same images once per schedule.
func (a *APK) EncodedDigest() sig.Digest {
	a.digestOnce.Do(func() { a.digest = ContentDigest(a.Encode()) })
	return a.digest
}

func (a *APK) encode() []byte {
	p := payload{
		Manifest:  a.Manifest,
		Signature: a.Signature,
		Padding:   a.Padding,
	}
	if len(a.Files) > 0 {
		p.Files = a.Files
	}
	body, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("apk: marshal payload: %v", err))
	}
	out := make([]byte, 0, len(body)+a.Padding+eocdSize)
	out = append(out, body...)
	out = append(out, make([]byte, a.Padding)...)
	digest := sig.Sum(out)
	out = append(out, eocdMagic...)
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(body)))
	out = append(out, lenBuf[:]...)
	out = append(out, digest[:]...)
	return out
}

// Size returns the encoded size in bytes.
func (a *APK) Size() int64 { return int64(len(a.Encode())) }

// decodeCache memoizes parsed archives by their verified full-content
// digest: every device of a sweep installs the same handful of staged
// images, and identical bytes decode to identical (immutable, shareable)
// APKs. Entries are never evicted, so two caps bound it: decodeCacheCap
// entries for corpus-scale workloads, and decodeCacheMaxBytes of encoded
// archives for a daemon that publishes a fresh large package per install
// (an entry holds its decoded payload and, once EncodedDigest memoizes it,
// the re-encoding too). Past either cap, decodes simply stop being cached.
var decodeCache struct { //gia:global — knockout: +78% per explore-sweep schedule, +28% per explore-orders one; both caps keep fleet-http's 543-byte installs cached
	sync.Mutex
	m    map[sig.Digest]*APK
	held int // encoded bytes of the cached archives
}

const (
	decodeCacheCap      = 4096
	decodeCacheMaxBytes = 16 << 20
)

// Decode parses an encoded APK, requiring a complete EOCD record. The
// returned APK may be shared with other callers that decoded the same
// bytes; treat it as immutable.
func Decode(data []byte) (*APK, error) {
	if !HasEOCD(data) {
		return nil, ErrTruncated
	}
	bodyLen := binary.BigEndian.Uint64(data[len(data)-eocdSize+4 : len(data)-eocdSize+12])
	if bodyLen > uint64(len(data)-eocdSize) {
		return nil, fmt.Errorf("declared body %d bytes in %d-byte archive: %w", bodyLen, len(data), ErrCorrupt)
	}
	var want sig.Digest
	copy(want[:], data[len(data)-sig.DigestSize:])
	// The digest check always runs: cache hits are keyed by what the bytes
	// actually hash to, never by what the EOCD claims.
	if got := sig.Sum(data[:len(data)-eocdSize]); got != want {
		return nil, fmt.Errorf("content digest mismatch: %w", ErrCorrupt)
	}
	decodeCache.Lock()
	cached := decodeCache.m[want]
	decodeCache.Unlock()
	if cached != nil {
		return cached, nil
	}
	var p payload
	if err := json.Unmarshal(data[:bodyLen], &p); err != nil {
		return nil, fmt.Errorf("parse payload: %w", ErrCorrupt)
	}
	a := &APK{Manifest: p.Manifest, Signature: p.Signature, Padding: p.Padding}
	if len(p.Files) > 0 {
		a.Files = p.Files
	}
	decodeCache.Lock()
	if decodeCache.m == nil {
		decodeCache.m = make(map[sig.Digest]*APK)
	}
	if _, dup := decodeCache.m[want]; !dup && len(decodeCache.m) < decodeCacheCap &&
		decodeCache.held+len(data) <= decodeCacheMaxBytes {
		decodeCache.m[want] = a
		decodeCache.held += len(data)
	}
	decodeCache.Unlock()
	return a, nil
}

// HasEOCD reports whether data ends with a complete EOCD record — the
// completion signal the wait-and-see attacker polls file tails for.
func HasEOCD(data []byte) bool {
	if len(data) < eocdSize {
		return false
	}
	return bytes.Equal(data[len(data)-eocdSize:len(data)-eocdSize+4], eocdMagic)
}

// ContentDigest hashes a full encoded archive — the hash installers verify
// after download.
func ContentDigest(encoded []byte) sig.Digest { return sig.Sum(encoded) }

// Repackage builds a new APK with the original's manifest (label, icon and
// package name intact — so consent dialogs and manifest-only verification
// look identical) but attacker-controlled files, signed by the attacker's
// key. If stripDRM is set, DRM self-check entries (drm/ prefix) are dropped,
// matching the Amazon appstore attack of Section III-B.
func Repackage(orig *APK, attackerFiles map[string][]byte, attackerKey *sig.Key, stripDRM bool) *APK {
	files := make(map[string][]byte, len(orig.Files)+len(attackerFiles))
	for name, data := range orig.Files {
		if stripDRM && isDRMEntry(name) {
			continue
		}
		files[name] = append([]byte(nil), data...)
	}
	for name, data := range attackerFiles {
		files[name] = append([]byte(nil), data...)
	}
	repacked := Build(orig.Manifest, files, attackerKey)
	repacked.Padding = orig.Padding
	return repacked
}

// DRMEntryName is the archive entry holding an app's DRM self-check data:
// the hex fingerprint of the certificate the app expects to be signed with.
const DRMEntryName = "drm/selfcheck"

// WithDRM returns a copy of the APK embedding a DRM self-check entry bound
// to its current signer, re-signed by key (which must be the same signer for
// the self-check to pass at runtime).
func WithDRM(a *APK, key *sig.Key) *APK {
	files := cloneFiles(a.Files)
	fp := key.Certificate().Fingerprint
	files[DRMEntryName] = []byte(fp.Hex())
	out := Build(a.Manifest, files, key)
	out.Padding = a.Padding
	return out
}

// DRMSelfCheck reports whether the APK's embedded DRM expectation matches
// its actual signer. Apps without a DRM entry pass trivially (no self-check
// to run); a repackaged app that kept the entry fails.
func (a *APK) DRMSelfCheck() bool {
	want, ok := a.Files[DRMEntryName]
	if !ok {
		return true
	}
	return string(want) == a.Signature.Cert.Fingerprint.Hex()
}

func isDRMEntry(name string) bool {
	return name == DRMEntryName || (len(name) > 4 && name[:4] == "drm/")
}

func cloneFiles(files map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(files))
	for name, data := range files {
		out[name] = append([]byte(nil), data...)
	}
	return out
}
