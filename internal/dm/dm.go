// Package dm models the AOSP Download Manager (AIT Step 2) together with
// the symbolic-link TOCTOU weakness of Section III-C.
//
// The manager enforces the real service's security policy: each download ID
// is bound to the requesting package, and the destination must resolve to
// external storage or the caller's cache directory. The flaw is *when* the
// symlink resolution happens relative to when the path is used:
//
//   - PolicyLegacy (Android 4.4): the destination is checked at enqueue
//     time only. Retrieve and Remove later dereference the stored path with
//     the Download Manager's own privileged identity — an attacker who
//     re-points a symlink after the check reads or deletes arbitrary files
//     the DM can access, including the DM's own database.
//   - PolicyRecheck (Android 6.0): the physical path is re-checked right
//     before each request is processed, but a gap remains between the check
//     and the actual operation; a process continuously flipping the link
//     can land a flip inside the gap.
//   - PolicyFixed (the fix shipped after the authors' report): the path is
//     resolved once and the *resolved physical path* is used, atomically.
package dm

import (
	"errors"
	"fmt"
	"path"
	"strings"
	"time"

	"github.com/ghost-installer/gia/internal/fault"
	"github.com/ghost-installer/gia/internal/sim"
	"github.com/ghost-installer/gia/internal/vfs"
)

// SymlinkPolicy selects the destination-path handling behaviour.
type SymlinkPolicy int

// Policies, in historical order.
const (
	PolicyLegacy SymlinkPolicy = iota + 1
	PolicyRecheck
	PolicyFixed
)

func (p SymlinkPolicy) String() string {
	switch p {
	case PolicyLegacy:
		return "legacy-4.4"
	case PolicyRecheck:
		return "recheck-6.0"
	case PolicyFixed:
		return "fixed"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Status of a download.
type Status int

// Download states.
const (
	StatusPending Status = iota + 1
	StatusRunning
	StatusSuccessful
	StatusFailed
	StatusRemoved
)

func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusRunning:
		return "running"
	case StatusSuccessful:
		return "successful"
	case StatusFailed:
		return "failed"
	case StatusRemoved:
		return "removed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Errors returned by the manager.
var (
	ErrUnauthorizedDest = errors.New("dm: destination outside /sdcard and the caller's cache directory")
	ErrNotOwner         = errors.New("dm: download id belongs to another package")
	ErrUnknownID        = errors.New("dm: unknown download id")
	ErrNotComplete      = errors.New("dm: download not complete")
	ErrDatabase         = errors.New("dm: downloads database unavailable")
)

// DBPath is where the manager keeps its database — the high-value deletion
// target of the Section III-C denial-of-service attack on Google Play.
const DBPath = "/data/data/com.android.providers.downloads/databases/downloads.db"

// ManagerUID is the Download Manager's own Linux identity. It is a system
// UID: acquiring its file-access privilege is the point of the attack.
const ManagerUID vfs.UID = 1001

// Fetcher retrieves remote content by URL (implemented by the market). The
// returned bytes must never be modified afterwards: downloads stage them
// with vfs.Handle.WriteShared instead of copying them.
type Fetcher interface {
	Fetch(url string) ([]byte, error)
}

// Download is one enqueue request and its state.
type Download struct {
	ID         int64
	Package    string
	Caller     vfs.UID
	URL        string
	Dest       string
	Status     Status
	BytesTotal int64
	BytesDone  int64
	Err        error
}

// Options configure a Manager.
type Options struct {
	Policy SymlinkPolicy
	// ChunkSize and BytesPerSec define the simulated transfer cadence.
	ChunkSize   int64
	BytesPerSec int64
	// RecheckGap is the virtual-time distance between the 6.0 policy's
	// path re-check and the actual file operation.
	RecheckGap time.Duration
}

func (o *Options) fill() {
	if o.Policy == 0 {
		o.Policy = PolicyLegacy
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 64 << 10
	}
	if o.BytesPerSec <= 0 {
		o.BytesPerSec = 4 << 20
	}
	if o.RecheckGap <= 0 {
		o.RecheckGap = 500 * time.Microsecond
	}
}

// Manager is the Download Manager service.
type Manager struct {
	fs    *vfs.FS
	sched *sim.Scheduler
	fetch Fetcher
	opts  Options

	downloads   map[int64]*Download
	nextID      int64
	initialized bool
	injector    fault.Injector
}

// SetFaultInjector installs (or, with nil, removes) the fault hook probed on
// each remote fetch (fault.SiteDMFetch) and each chunk write
// (fault.SiteDMChunk). Chunk faults model the transfer pathologies the AIT
// must survive: error fails the download, delay stretches it, and truncate
// ends it early while still reporting success — a silently truncated
// download landing in the staging directory.
func (m *Manager) SetFaultInjector(fi fault.Injector) { m.injector = fi }

func (m *Manager) probe(site fault.Site, subject string) fault.Action {
	if m.injector == nil {
		return fault.None
	}
	return m.injector.Probe(site, subject, m.sched.Now())
}

// New creates a Manager and initializes its database file.
func New(fs *vfs.FS, sched *sim.Scheduler, fetch Fetcher, opts Options) (*Manager, error) {
	opts.fill()
	m := &Manager{
		fs:        fs,
		sched:     sched,
		fetch:     fetch,
		opts:      opts,
		downloads: make(map[int64]*Download),
		nextID:    1,
	}
	if err := fs.MkdirAll(path.Dir(DBPath), ManagerUID, vfs.ModeDir); err != nil {
		return nil, fmt.Errorf("dm: prepare database dir: %w", err)
	}
	if err := m.persistDB(); err != nil {
		return nil, err
	}
	m.initialized = true
	return m, nil
}

// Reset discards all download state and re-initializes the database file,
// restoring the boot-time options (experiments mutate the policy through
// SetPolicy). The filesystem must already be reset: like New, Reset
// recreates the database directory and file from scratch.
func (m *Manager) Reset(opts Options) error {
	opts.fill()
	m.opts = opts
	m.downloads = make(map[int64]*Download)
	m.nextID = 1
	m.injector = nil
	m.initialized = false
	if err := m.fs.MkdirAll(path.Dir(DBPath), ManagerUID, vfs.ModeDir); err != nil {
		return fmt.Errorf("dm: prepare database dir: %w", err)
	}
	if err := m.persistDB(); err != nil {
		return err
	}
	m.initialized = true
	return nil
}

// RepairDB recreates a destroyed downloads database (factory reset in the
// real world). Used by experiments to restore service between runs.
func (m *Manager) RepairDB() error {
	m.initialized = false
	err := m.persistDB()
	m.initialized = true
	return err
}

// Policy reports the active symlink policy.
func (m *Manager) Policy() SymlinkPolicy { return m.opts.Policy }

// SetPolicy switches the symlink policy (used by the experiments).
func (m *Manager) SetPolicy(p SymlinkPolicy) { m.opts.Policy = p }

// Healthy reports whether the downloads database still exists. Deleting it
// through the symlink attack leaves every DM client (notably the Play
// store) unable to download.
func (m *Manager) Healthy() bool { return m.fs.Exists(DBPath) }

// persistDB writes the database file after every state change. Once the
// database has been destroyed (the DoS of Section III-C), the manager does
// not resurrect it: real clients see a dead service until it is repaired.
func (m *Manager) persistDB() error {
	if m.initialized && !m.fs.Exists(DBPath) {
		return ErrDatabase
	}
	var b strings.Builder
	b.WriteString("downloads.db v1\n")
	for id := int64(1); id < m.nextID; id++ {
		d, ok := m.downloads[id]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%d|%s|%s|%s|%s|%d/%d\n",
			d.ID, d.Package, d.URL, d.Dest, d.Status, d.BytesDone, d.BytesTotal)
	}
	if err := m.fs.WriteFile(DBPath, []byte(b.String()), ManagerUID, vfs.ModePrivate); err != nil {
		return fmt.Errorf("dm: persist database: %w", err)
	}
	return nil
}

// authorized reports whether a *resolved* destination path is one the
// caller may use: external storage or the caller's own cache directory.
func authorized(resolved, pkg string) bool {
	if strings.HasPrefix(resolved, "/sdcard/") {
		return true
	}
	cache := "/data/data/" + pkg + "/cache/"
	return strings.HasPrefix(resolved, cache)
}

// resolveDest resolves the destination's parent directory (the file itself
// may not exist yet) and returns the resolved full path.
func (m *Manager) resolveDest(dest string) (string, error) {
	parent, err := m.fs.Resolve(path.Dir(dest))
	if err != nil {
		return "", err
	}
	return parent + "/" + path.Base(dest), nil
}

// Enqueue registers a download on behalf of caller/pkg and starts the
// simulated transfer. done (optional) fires when the download reaches a
// terminal state.
//
// The destination check happens HERE, against the path as it resolves NOW.
func (m *Manager) Enqueue(caller vfs.UID, pkg, url, dest string, done func(*Download)) (int64, error) {
	if !m.Healthy() {
		return 0, ErrDatabase
	}
	resolved, err := m.resolveDest(dest)
	if err != nil {
		return 0, fmt.Errorf("dm: resolve destination: %w", err)
	}
	if !authorized(resolved, pkg) {
		return 0, fmt.Errorf("%s resolves to %s: %w", dest, resolved, ErrUnauthorizedDest)
	}
	d := &Download{
		ID:      m.nextID,
		Package: pkg,
		Caller:  caller,
		URL:     url,
		Dest:    dest,
		Status:  StatusPending,
	}
	m.nextID++
	m.downloads[d.ID] = d
	if err := m.persistDB(); err != nil {
		return 0, err
	}
	m.sched.AfterFn(0, func() { m.start(d, done) })
	return d.ID, nil
}

func (m *Manager) start(d *Download, done func(*Download)) {
	if act := m.probe(fault.SiteDMFetch, d.URL); act.Kind == fault.KindError {
		m.finish(d, fmt.Errorf("dm: fetch %s: %w", d.URL, act.Err), done)
		return
	}
	data, err := m.fetch.Fetch(d.URL)
	if err != nil {
		m.finish(d, fmt.Errorf("dm: fetch %s: %w", d.URL, err), done)
		return
	}
	d.BytesTotal = int64(len(data))
	d.Status = StatusRunning
	_ = m.persistDB()
	// The destination file is written with the *caller's* identity: the
	// resulting file belongs to the requesting app (which is what the
	// patched FUSE daemon records as the APK owner).
	h, err := m.fs.Open(d.Dest, d.Caller, vfs.FlagWrite|vfs.FlagCreate|vfs.FlagTrunc, vfs.ModeShared)
	if err != nil {
		m.finish(d, fmt.Errorf("dm: open destination: %w", err), done)
		return
	}
	m.writeChunks(d, h, data, done)
}

func (m *Manager) writeChunks(d *Download, h *vfs.Handle, rest []byte, done func(*Download)) {
	if len(rest) == 0 {
		if err := h.Close(); err != nil {
			m.finish(d, err, done)
			return
		}
		m.finish(d, nil, done)
		return
	}
	n := m.opts.ChunkSize
	if int64(len(rest)) < n {
		n = int64(len(rest))
	}
	chunkTime := time.Duration(float64(n) / float64(m.opts.BytesPerSec) * float64(time.Second))
	switch act := m.probe(fault.SiteDMChunk, d.Dest); act.Kind {
	case fault.KindError:
		_ = h.Close()
		m.finish(d, fmt.Errorf("dm: write chunk: %w", act.Err), done)
		return
	case fault.KindDelay:
		chunkTime += act.Delay
	case fault.KindTruncate:
		// The transfer ends here but nothing notices: what has arrived
		// stays on disk and the download is reported successful.
		if err := h.Close(); err != nil {
			m.finish(d, err, done)
			return
		}
		m.finish(d, nil, done)
		return
	}
	m.sched.AfterFn(chunkTime, func() {
		if d.Status != StatusRunning { // removed mid-flight
			_ = h.Close()
			return
		}
		if _, err := h.WriteShared(rest[:n]); err != nil {
			_ = h.Close()
			m.finish(d, fmt.Errorf("dm: write chunk: %w", err), done)
			return
		}
		d.BytesDone += n
		m.writeChunks(d, h, rest[n:], done)
	})
}

func (m *Manager) finish(d *Download, err error, done func(*Download)) {
	if err != nil {
		d.Status = StatusFailed
		d.Err = err
	} else {
		d.Status = StatusSuccessful
	}
	_ = m.persistDB()
	if done != nil {
		done(d)
	}
}

// Query returns a snapshot of the download's state.
func (m *Manager) Query(id int64) (Download, error) {
	d, ok := m.downloads[id]
	if !ok {
		return Download{}, fmt.Errorf("%d: %w", id, ErrUnknownID)
	}
	return *d, nil
}

// Retrieve hands the downloaded bytes to the owning package. cb receives
// the content or an error once the (policy-dependent) processing completes.
//
// The file read is performed with the Download Manager's own identity —
// that privilege, combined with late symlink dereference, is what the
// attacker steals.
func (m *Manager) Retrieve(caller vfs.UID, pkg string, id int64, cb func([]byte, error)) {
	d, err := m.owned(caller, pkg, id)
	if err != nil {
		cb(nil, err)
		return
	}
	if d.Status != StatusSuccessful {
		cb(nil, fmt.Errorf("%d is %s: %w", id, d.Status, ErrNotComplete))
		return
	}
	m.operate(d, cb, func(target string) ([]byte, error) {
		return m.fs.ReadFile(target, ManagerUID)
	})
}

// Remove deletes the downloaded file and the database row. Like Retrieve,
// the deletion runs with the manager's identity and policy-dependent
// symlink handling.
func (m *Manager) Remove(caller vfs.UID, pkg string, id int64, cb func(error)) {
	d, err := m.owned(caller, pkg, id)
	if err != nil {
		cb(err)
		return
	}
	m.operate(d, func(_ []byte, err error) {
		if err == nil {
			d.Status = StatusRemoved
			_ = m.persistDB()
		}
		cb(err)
	}, func(target string) ([]byte, error) {
		return nil, m.fs.Remove(target, ManagerUID)
	})
}

// operate applies op to the download's destination under the active
// symlink policy and delivers the result through cb.
func (m *Manager) operate(d *Download, cb func([]byte, error), op func(target string) ([]byte, error)) {
	switch m.opts.Policy {
	case PolicyLegacy:
		// No re-check at all: dereference the stored path now.
		out, err := op(d.Dest)
		cb(out, err)
	case PolicyRecheck:
		// Check the physical path right before processing the request —
		// then process a beat later, leaving the exploitable gap.
		resolved, err := m.resolveDest(d.Dest)
		if err != nil {
			cb(nil, fmt.Errorf("dm: recheck: %w", err))
			return
		}
		if !authorized(resolved, d.Package) {
			cb(nil, fmt.Errorf("recheck of %s found %s: %w", d.Dest, resolved, ErrUnauthorizedDest))
			return
		}
		m.sched.AfterFn(m.opts.RecheckGap, func() {
			out, err := op(d.Dest) // dereferences AGAIN — the gap
			cb(out, err)
		})
	case PolicyFixed:
		// Resolve once, verify, and operate on the resolved physical
		// path. No second dereference exists to race against.
		resolved, err := m.resolveDest(d.Dest)
		if err != nil {
			cb(nil, fmt.Errorf("dm: resolve: %w", err))
			return
		}
		if !authorized(resolved, d.Package) {
			cb(nil, fmt.Errorf("%s resolves to %s: %w", d.Dest, resolved, ErrUnauthorizedDest))
			return
		}
		out, err := op(resolved)
		cb(out, err)
	default:
		cb(nil, fmt.Errorf("dm: unknown policy %v", m.opts.Policy))
	}
}

func (m *Manager) owned(caller vfs.UID, pkg string, id int64) (*Download, error) {
	d, ok := m.downloads[id]
	if !ok {
		return nil, fmt.Errorf("%d: %w", id, ErrUnknownID)
	}
	if d.Package != pkg || d.Caller != caller {
		return nil, fmt.Errorf("%d requested by %s/%d: %w", id, pkg, caller, ErrNotOwner)
	}
	return d, nil
}
