// Package vfs implements the in-memory Unix-like filesystem of the simulated
// Android device: directories, regular files, symbolic links, UID ownership,
// permission bits, pluggable per-mount access policies (used by the FUSE
// daemon for /sdcard) and inotify-style event emission (used by the
// FileObserver class and by the attacks and defenses built on it).
package vfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"time"

	"github.com/ghost-installer/gia/internal/fault"
)

// UID identifies the acting process/app, following Android's convention:
// UID 0 is root, 1000 is the system server, and app UIDs start at 10000.
type UID int

// Well-known UIDs.
const (
	Root   UID = 0
	System UID = 1000
)

// IsSystem reports whether the UID belongs to a system process (root or a
// UID below the first app UID).
func (u UID) IsSystem() bool { return u < 10000 }

// Mode holds simplified Unix permission bits (owner/group/other rwx).
type Mode uint16

// Common permission modes.
const (
	ModeOwnerRead  Mode = 0o400
	ModeOwnerWrite Mode = 0o200
	ModeGroupRead  Mode = 0o040
	ModeOtherRead  Mode = 0o004
	ModeOtherWrite Mode = 0o002

	// ModePrivate is the default for app-private files: rw- --- ---.
	ModePrivate Mode = 0o600
	// ModeWorldReadable marks a file readable by every app: rw- r-- r--.
	// Installers using internal storage must set this on a staged APK or
	// the PackageManager cannot read it (Section II of the paper).
	ModeWorldReadable Mode = 0o644
	// ModeProtectedAPK is the mode the patched FUSE daemon derives for
	// APKs on the SD card: rw- r-- ---.
	ModeProtectedAPK Mode = 0o640
	// ModeShared is the default for files on shared external storage.
	ModeShared Mode = 0o666
	// ModeDir is the default directory mode.
	ModeDir Mode = 0o755
)

// WorldReadable reports whether the "other" read bit is set.
func (m Mode) WorldReadable() bool { return m&ModeOtherRead != 0 }

// Errors returned by filesystem operations.
var (
	ErrNotExist     = errors.New("vfs: file does not exist")
	ErrExist        = errors.New("vfs: file already exists")
	ErrPermission   = errors.New("vfs: permission denied")
	ErrIsDir        = errors.New("vfs: is a directory")
	ErrNotDir       = errors.New("vfs: not a directory")
	ErrNotEmpty     = errors.New("vfs: directory not empty")
	ErrNoSpace      = errors.New("vfs: no space left on device")
	ErrLinkLoop     = errors.New("vfs: too many levels of symbolic links")
	ErrInvalidPath  = errors.New("vfs: invalid path")
	ErrClosedHandle = errors.New("vfs: handle is closed")
)

const maxSymlinkHops = 16

// Info describes a file, directory or symlink.
type Info struct {
	Path       string
	Name       string
	Size       int64
	Mode       Mode
	Owner      UID
	IsDir      bool
	IsSymlink  bool
	LinkTarget string
	ModTime    time.Duration
}

type nodeKind int

const (
	kindDir nodeKind = iota + 1
	kindFile
	kindSymlink
)

type node struct {
	kind     nodeKind
	name     string
	parent   *node
	children []*node // kindDir, sorted by name
	data     []byte  // kindFile
	// shared marks data as an adopted immutable buffer (WriteShared): the
	// bytes are aliased by their publisher (e.g. a market listing), so any
	// in-place mutation must unshare first (copy-on-write in Handle.Write).
	shared  bool
	target  string // kindSymlink
	owner   UID
	mode    Mode
	modTime time.Duration
	// cpath memoizes path(): every open, event emission and Info build
	// renders the full path, and rebuilding it by walking the parent chain
	// dominated the event hot path. Rename invalidates the moved subtree.
	cpath string
	// baseline marks a directory as part of the factory image recorded by
	// MarkBaseline: Reset keeps it (and its memoized path) in place. Any
	// mutation — chmod, chown, rename — clears the flag, so a preserved
	// directory is always bit-identical to its just-booted state.
	baseline bool
}

func (n *node) path() string {
	if n.parent == nil {
		return "/"
	}
	if n.cpath != "" {
		return n.cpath
	}
	parent := n.parent.path()
	if parent == "/" {
		n.cpath = "/" + n.name
	} else {
		n.cpath = parent + "/" + n.name
	}
	return n.cpath
}

// invalidatePaths clears the memoized paths of n and everything beneath it,
// after a rename re-roots the subtree. A moved directory also stops being
// baseline: it is no longer where the factory image put it.
func invalidatePaths(n *node) {
	n.cpath = ""
	n.baseline = false
	for _, c := range n.children {
		invalidatePaths(c)
	}
}

// childIndex returns the position of name in n's sorted children slice, or
// the insertion point if absent (found reports which).
func (n *node) childIndex(name string) (int, bool) {
	lo, hi := 0, len(n.children)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.children[mid].name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.children) && n.children[lo].name == name
}

// child returns the entry named name, or nil. Directories in a device image
// are tiny, so a sorted slice beats a map: no per-directory map allocation,
// no string hashing on the lookup hot path, and List/Walk iterate in lexical
// order without collecting and sorting names first.
func (n *node) child(name string) *node {
	if i, ok := n.childIndex(name); ok {
		return n.children[i]
	}
	return nil
}

// addChild links n under parent, keeping the slice sorted. An existing entry
// with the same name is replaced (matching the old map semantics, which
// Rename relies on when overwriting a file).
func addChild(parent *node, name string, n *node) {
	i, ok := parent.childIndex(name)
	if ok {
		parent.children[i] = n
		return
	}
	parent.children = append(parent.children, nil)
	copy(parent.children[i+1:], parent.children[i:])
	parent.children[i] = n
}

// removeChild unlinks child from parent (no-op if absent).
func removeChild(parent, child *node) {
	if i, ok := parent.childIndex(child.name); ok && parent.children[i] == child {
		parent.children = append(parent.children[:i], parent.children[i+1:]...)
	}
}

func (n *node) info() Info {
	return Info{
		Path:       n.path(),
		Name:       n.name,
		Size:       int64(len(n.data)),
		Mode:       n.mode,
		Owner:      n.owner,
		IsDir:      n.kind == kindDir,
		IsSymlink:  n.kind == kindSymlink,
		LinkTarget: n.target,
		ModTime:    n.modTime,
	}
}

// FS is an in-memory filesystem. It is not safe for concurrent use: the
// simulation is single-threaded by design (see internal/sim).
type FS struct {
	root     *node
	now      func() time.Duration
	watchers map[string][]*Watch
	mounts   []mount // sorted by descending prefix length
	nextWID  int
	injector fault.Injector
	// free is the node recycle list, fed exclusively by Reset's baseline
	// prune — never by Remove, whose victims may still be referenced by
	// open handles within the run.
	free []*node
	// scratch backs infoScratch, the allocation-free Info pointer handed to
	// synchronous policy checks on the open/read hot paths.
	scratch Info
}

type mount struct {
	prefix   string
	policy   Policy
	capacity int64 // 0 means unlimited
	used     int64
}

// New creates an empty filesystem whose event timestamps come from now
// (typically Scheduler.Now). The root directory is owned by Root.
func New(now func() time.Duration) *FS {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &FS{
		root:     &node{kind: kindDir, owner: Root, mode: ModeDir},
		now:      now,
		watchers: make(map[string][]*Watch),
	}
}

// Reset returns the filesystem to its just-created state while keeping the
// mount table: the policies installed at boot are part of the device's
// hardware configuration, not its mutable state. Directories stamped by
// MarkBaseline survive in place (they are provably untouched); everything
// else is pruned and recycled. Watches created before Reset are marked
// closed so stale subscriptions cannot observe the next run; file handles
// must likewise not outlive a Reset, since the nodes they reference may be
// recycled into the next run's tree.
func (fs *FS) Reset() {
	fs.root.owner, fs.root.mode, fs.root.modTime = Root, ModeDir, 0
	fs.pruneChildren(fs.root)
	for _, list := range fs.watchers {
		for _, w := range list {
			w.closed = true
		}
	}
	clear(fs.watchers)
	fs.nextWID = 0
	for i := range fs.mounts {
		fs.mounts[i].used = 0
	}
	fs.injector = nil
}

// MarkBaseline stamps every directory currently in the tree as part of the
// factory image, so Reset keeps it — with its memoized path and sorted
// children slice — instead of discarding the whole tree. Re-preparing a
// pooled device's skeleton then hits MkdirAll's everything-exists fast
// path. Files and symlinks are never baseline: their contents are run
// state, rewritten by the boot wiring anyway.
func (fs *FS) MarkBaseline() { markBaseline(fs.root) }

func markBaseline(n *node) {
	if n.kind != kindDir {
		return
	}
	n.baseline = true
	for _, c := range n.children {
		markBaseline(c)
	}
}

// pruneChildren removes every non-baseline node under n, recycling the
// detached subtrees. Kept directories are exactly as Boot left them — any
// mutation clears the baseline flag — so nothing needs restoring.
func (fs *FS) pruneChildren(n *node) {
	kept := n.children[:0]
	for _, c := range n.children {
		if c.baseline {
			fs.pruneChildren(c)
			kept = append(kept, c)
		} else {
			fs.freeSubtree(c)
		}
	}
	tail := n.children[len(kept):]
	for i := range tail {
		tail[i] = nil
	}
	n.children = kept
}

// maxFreeNodes bounds the recycle list so one run's huge tree cannot pin
// memory for the arena's whole life.
const maxFreeNodes = 512

// freeSubtree returns n and everything beneath it to the recycle list,
// clearing all fields except the children slice's capacity (re-sorted
// inserts reuse it).
func (fs *FS) freeSubtree(n *node) {
	for _, c := range n.children {
		fs.freeSubtree(c)
	}
	if len(fs.free) >= maxFreeNodes {
		return
	}
	*n = node{children: n.children[:0]}
	fs.free = append(fs.free, n)
}

// newNode takes a recycled node or allocates a fresh one. All fields are
// zero except possibly a retained children capacity.
func (fs *FS) newNode() *node {
	if k := len(fs.free); k > 0 {
		nd := fs.free[k-1]
		fs.free[k-1] = nil
		fs.free = fs.free[:k-1]
		return nd
	}
	return &node{}
}

// infoScratch renders n's Info into the FS's scratch slot and returns its
// address: policy checks are synchronous and never retain Request.Info, so
// the open/read hot paths can skip allocating a copy per check.
func (fs *FS) infoScratch(n *node) *Info {
	fs.scratch = n.info()
	return &fs.scratch
}

// Mount installs an access policy over the subtree rooted at prefix, with an
// optional capacity in bytes (0 = unlimited). Longest-prefix match wins.
// Mounting over an existing prefix replaces the previous policy.
func (fs *FS) Mount(prefix string, p Policy, capacity int64) error {
	prefix, err := cleanPath(prefix)
	if err != nil {
		return err
	}
	for i := range fs.mounts {
		if fs.mounts[i].prefix == prefix {
			fs.mounts[i].policy = p
			fs.mounts[i].capacity = capacity
			return nil
		}
	}
	fs.mounts = append(fs.mounts, mount{prefix: prefix, policy: p, capacity: capacity})
	sort.Slice(fs.mounts, func(i, j int) bool {
		return len(fs.mounts[i].prefix) > len(fs.mounts[j].prefix)
	})
	return nil
}

// MountUsage reports bytes used and capacity of the mount covering prefix.
func (fs *FS) MountUsage(prefix string) (used, capacity int64, err error) {
	prefix, err = cleanPath(prefix)
	if err != nil {
		return 0, 0, err
	}
	for i := range fs.mounts {
		if fs.mounts[i].prefix == prefix {
			return fs.mounts[i].used, fs.mounts[i].capacity, nil
		}
	}
	return 0, 0, fmt.Errorf("vfs: no mount at %q: %w", prefix, ErrNotExist)
}

func (fs *FS) mountFor(p string) *mount {
	for i := range fs.mounts {
		if underPrefix(p, fs.mounts[i].prefix) {
			return &fs.mounts[i]
		}
	}
	return nil
}

func (fs *FS) policyFor(p string) Policy {
	if m := fs.mountFor(p); m != nil && m.policy != nil {
		return m.policy
	}
	return defaultDAC{}
}

func (fs *FS) check(req Request) error {
	return fs.policyFor(req.Path).Check(fs, req)
}

// SetFaultInjector installs (or, with nil, removes) the fault hook probed
// on open, read, write and rename (fault.SiteVFS*). Only error-kind faults
// apply: filesystem calls are synchronous, so there is nothing to delay or
// duplicate.
func (fs *FS) SetFaultInjector(fi fault.Injector) { fs.injector = fi }

// injectErr probes the injector at site for p and returns the injected
// error, if any.
func (fs *FS) injectErr(site fault.Site, p string) error {
	if fs.injector == nil {
		return nil
	}
	if act := fs.injector.Probe(site, p, fs.now()); act.Kind == fault.KindError {
		return act.Err
	}
	return nil
}

// chargeSpace accounts newBytes-oldBytes against the mount covering p.
func (fs *FS) chargeSpace(p string, delta int64) error {
	m := fs.mountFor(p)
	if m == nil {
		return nil
	}
	if m.capacity > 0 && delta > 0 && m.used+delta > m.capacity {
		return fmt.Errorf("mount %s: %w", m.prefix, ErrNoSpace)
	}
	m.used += delta
	if m.used < 0 {
		m.used = 0
	}
	return nil
}

// pathError is the lazily-formatted form of fmt.Errorf("%q: %w", path, err)
// for the lookup hot path: existence probes (attacker pollers, MkdirAll,
// Exists) construct and immediately discard huge numbers of not-exist
// errors, so the string rendering is deferred until someone reads it.
type pathError struct {
	path string
	err  error
}

func (e *pathError) Error() string { return fmt.Sprintf("%q: %s", e.path, e.err) }
func (e *pathError) Unwrap() error { return e.err }

// cleanPath validates and normalizes an absolute path.
func cleanPath(p string) (string, error) {
	if p == "" || p[0] != '/' {
		return "", fmt.Errorf("%q: %w", p, ErrInvalidPath)
	}
	if isCleanPath(p) {
		return p, nil
	}
	return path.Clean(p), nil
}

// isCleanPath reports whether an absolute path is already in path.Clean
// form — the overwhelmingly common case on the simulation's hot paths,
// where Clean's byte-by-byte rebuild (and its allocation) can be skipped.
func isCleanPath(p string) bool {
	if p == "/" {
		return true
	}
	if p[len(p)-1] == '/' {
		return false
	}
	for i := 0; i < len(p); i++ {
		if p[i] != '/' {
			continue
		}
		if p[i+1] == '/' {
			return false // empty component
		}
		if p[i+1] == '.' {
			if i+2 == len(p) || p[i+2] == '/' {
				return false // "." component
			}
			if p[i+2] == '.' && (i+3 == len(p) || p[i+3] == '/') {
				return false // ".." component
			}
		}
	}
	return true
}

// underPrefix reports whether p equals prefix or lies beneath it,
// respecting path-component boundaries.
func underPrefix(p, prefix string) bool {
	if prefix == "/" {
		return true
	}
	return p == prefix || strings.HasPrefix(p, prefix+"/")
}

// lookup walks to the node at p. If followLast, a trailing symlink is
// resolved. Intermediate symlinks are always resolved.
func (fs *FS) lookup(p string, followLast bool) (*node, error) {
	return fs.walk(p, followLast, 0)
}

func (fs *FS) walk(p string, followLast bool, hops int) (*node, error) {
	n, clean, errno := fs.walkCore(p, followLast, hops)
	switch {
	case errno == nil:
		return n, nil
	case clean == "":
		return nil, errno // cleanPath's own descriptive error
	default:
		return nil, &pathError{clean, errno}
	}
}

// walkCore is walk without the error allocation: failures come back as a
// bare sentinel (ErrNotExist, ErrNotDir, ErrLinkLoop) plus the cleaned
// path for walk to wrap. Existence probes — Exists and MkdirAll's
// everything-already-there fast path — call it directly, because there a
// failed lookup is the expected outcome and must not allocate.
func (fs *FS) walkCore(p string, followLast bool, hops int) (*node, string, error) {
	if hops > maxSymlinkHops {
		return nil, p, ErrLinkLoop
	}
	clean, err := cleanPath(p)
	if err != nil {
		return nil, "", err
	}
	cur := fs.root
	if clean == "/" {
		return cur, clean, nil
	}
	// Iterate components by slicing rather than strings.Split: lookups are
	// the single hottest operation in the simulation and must not allocate.
	rest := clean[1:]
	for {
		part := rest
		slash := strings.IndexByte(rest, '/')
		last := slash < 0
		if !last {
			part = rest[:slash]
		}
		if cur.kind != kindDir {
			return nil, clean, ErrNotDir
		}
		child := cur.child(part)
		if child == nil {
			return nil, clean, ErrNotExist
		}
		if child.kind == kindSymlink && (!last || followLast) {
			target := child.target
			if !strings.HasPrefix(target, "/") {
				target = path.Join(cur.path(), target)
			}
			if !last {
				target = target + "/" + rest[slash+1:]
			}
			return fs.walkCore(target, followLast, hops+1)
		}
		cur = child
		if last {
			return cur, clean, nil
		}
		rest = rest[slash+1:]
	}
}

// parentOf resolves the directory that would contain path p, following
// symlinks in the directory portion, and returns it with the final name and
// the cleaned form of p (for fullFor to reuse).
func (fs *FS) parentOf(p string) (*node, string, string, error) {
	clean, err := cleanPath(p)
	if err != nil {
		return nil, "", "", err
	}
	if clean == "/" {
		return nil, "", "", fmt.Errorf("%q: %w", p, ErrInvalidPath)
	}
	dir, name := path.Split(clean)
	dir = strings.TrimSuffix(dir, "/")
	if dir == "" {
		dir = "/"
	}
	dnode, err := fs.lookup(dir, true)
	if err != nil {
		return nil, "", "", err
	}
	if dnode.kind != kindDir {
		return nil, "", "", fmt.Errorf("%q: %w", dir, ErrNotDir)
	}
	return dnode, name, clean, nil
}

// Resolve returns the physical path p refers to after following every
// symlink. This is the check the Download Manager performs on destination
// paths; the gap between Resolve and a later operation on the same string
// path is exactly the TOCTOU window of Section III-C.
func (fs *FS) Resolve(p string) (string, error) {
	_, full, err := fs.lookupFull(p, true)
	return full, err
}

// Stat describes the file at p, following symlinks.
func (fs *FS) Stat(p string) (Info, error) {
	n, err := fs.lookup(p, true)
	if err != nil {
		return Info{}, err
	}
	return n.info(), nil
}

// Lstat describes the file at p without following a trailing symlink.
func (fs *FS) Lstat(p string) (Info, error) {
	n, err := fs.lookup(p, false)
	if err != nil {
		return Info{}, err
	}
	return n.info(), nil
}

// Exists reports whether p resolves to an existing file or directory.
func (fs *FS) Exists(p string) bool {
	n, _, _ := fs.walkCore(p, true, 0)
	return n != nil
}

// Mkdir creates a single directory owned by actor.
func (fs *FS) Mkdir(p string, actor UID, mode Mode) error {
	parent, name, clean, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	if parent.child(name) != nil {
		return fmt.Errorf("%q: %w", p, ErrExist)
	}
	full := fullFor(parent, name, clean)
	if err := fs.check(Request{Op: OpCreate, Path: full, Actor: actor, Dir: true}); err != nil {
		return err
	}
	n := fs.newNode()
	n.kind = kindDir
	n.name = name
	n.parent = parent
	n.cpath = full
	n.owner = actor
	n.mode = mode
	n.modTime = fs.now()
	addChild(parent, name, n)
	fs.emit(Event{Kind: EvCreate, Path: full, Actor: actor, IsDir: true})
	return nil
}

// MkdirAll creates p and any missing parents, owned by actor.
func (fs *FS) MkdirAll(p string, actor UID, mode Mode) error {
	clean, err := cleanPath(p)
	if err != nil {
		return err
	}
	if clean == "/" {
		return nil
	}
	// Fast path: the full tree usually already exists — one walk instead of
	// one per component, and no error allocation when it does not.
	if n, _, errno := fs.walkCore(clean, true, 0); errno == nil {
		if n.kind != kindDir {
			return fmt.Errorf("%q: %w", clean, ErrNotDir)
		}
		return nil
	}
	// Single descent: step through existing components in place and create
	// each missing one directly under its (already resolved) parent, with
	// the same per-component check and CREATE event as Mkdir. Re-walking
	// from the root per component made directory skeletons the hottest
	// path of a device reset.
	cur := fs.root
	end := 0
	direct := true // no symlink crossed: clean[:end] is cur's canonical path
	for end != len(clean) {
		start := end + 1
		if slash := strings.IndexByte(clean[start:], '/'); slash < 0 {
			end = len(clean)
		} else {
			end = start + slash
		}
		name := clean[start:end]
		if cur.kind != kindDir {
			return &pathError{clean[:start-1], ErrNotDir}
		}
		if child := cur.child(name); child != nil {
			if child.kind != kindSymlink {
				cur = child
				continue
			}
			// Symlinked prefix: resolve with a full walk. A dangling link
			// occupies the name, so creation would fail like Mkdir's.
			n, err := fs.lookup(clean[:end], true)
			if err != nil {
				if errors.Is(err, ErrNotExist) {
					return fmt.Errorf("%q: %w", clean[:end], ErrExist)
				}
				return err
			}
			cur = n
			direct = false
			continue
		}
		full := clean[:end]
		if !direct {
			full = childPath(cur, name)
		}
		if err := fs.check(Request{Op: OpCreate, Path: full, Actor: actor, Dir: true}); err != nil {
			return err
		}
		n := fs.newNode()
		n.kind = kindDir
		n.name = name
		n.parent = cur
		n.cpath = full
		n.owner = actor
		n.mode = mode
		n.modTime = fs.now()
		addChild(cur, name, n)
		fs.emit(Event{Kind: EvCreate, Path: full, Actor: actor, IsDir: true})
		cur = n
	}
	if cur.kind != kindDir {
		return &pathError{clean, ErrNotDir}
	}
	return nil
}

// Symlink creates a symbolic link at linkPath pointing at target. The
// target need not exist (dangling links are legal, as on Linux).
func (fs *FS) Symlink(target, linkPath string, actor UID) error {
	parent, name, clean, err := fs.parentOf(linkPath)
	if err != nil {
		return err
	}
	if parent.child(name) != nil {
		return fmt.Errorf("%q: %w", linkPath, ErrExist)
	}
	full := fullFor(parent, name, clean)
	if err := fs.check(Request{Op: OpCreate, Path: full, Actor: actor}); err != nil {
		return err
	}
	n := fs.newNode()
	n.kind = kindSymlink
	n.name = name
	n.parent = parent
	n.cpath = full
	n.target = target
	n.owner = actor
	n.mode = 0o777
	n.modTime = fs.now()
	addChild(parent, name, n)
	fs.emit(Event{Kind: EvCreate, Path: full, Actor: actor})
	return nil
}

// Retarget atomically re-points an existing symlink — the core primitive of
// the Download Manager TOCTOU attack. Only the link's owner or a system
// process may retarget it.
func (fs *FS) Retarget(linkPath, newTarget string, actor UID) error {
	n, err := fs.lookup(linkPath, false)
	if err != nil {
		return err
	}
	if n.kind != kindSymlink {
		return fmt.Errorf("%q: not a symlink: %w", linkPath, ErrInvalidPath)
	}
	if n.owner != actor && !actor.IsSystem() {
		return fmt.Errorf("retarget %q as uid %d: %w", linkPath, actor, ErrPermission)
	}
	n.target = newTarget
	n.modTime = fs.now()
	return nil
}

// ReadLink returns the target of the symlink at p.
func (fs *FS) ReadLink(p string) (string, error) {
	n, err := fs.lookup(p, false)
	if err != nil {
		return "", err
	}
	if n.kind != kindSymlink {
		return "", fmt.Errorf("%q: not a symlink: %w", p, ErrInvalidPath)
	}
	return n.target, nil
}

// Chmod changes the mode of the file at p. Permitted for the owner and
// system processes.
func (fs *FS) Chmod(p string, mode Mode, actor UID) error {
	n, full, err := fs.lookupFull(p, true)
	if err != nil {
		return err
	}
	if err := fs.check(Request{Op: OpChmod, Path: full, Actor: actor, Info: fs.infoScratch(n)}); err != nil {
		return err
	}
	n.mode = mode
	n.modTime = fs.now()
	n.baseline = false
	fs.emit(Event{Kind: EvAttrib, Path: full, Actor: actor})
	return nil
}

// Chown changes the owner of the file at p. Only system processes may do so.
func (fs *FS) Chown(p string, owner UID, actor UID) error {
	n, full, err := fs.lookupFull(p, true)
	if err != nil {
		return err
	}
	if !actor.IsSystem() {
		return fmt.Errorf("chown %q as uid %d: %w", p, actor, ErrPermission)
	}
	n.owner = owner
	n.modTime = fs.now()
	n.baseline = false
	fs.emit(Event{Kind: EvAttrib, Path: full, Actor: actor})
	return nil
}

// Remove unlinks the file, symlink or empty directory at p (not following a
// trailing symlink, like unlink(2)).
func (fs *FS) Remove(p string, actor UID) error {
	n, full, err := fs.lookupFull(p, false)
	if err != nil {
		return err
	}
	if n.parent == nil {
		return fmt.Errorf("remove /: %w", ErrInvalidPath)
	}
	if n.kind == kindDir && len(n.children) > 0 {
		return fmt.Errorf("%q: %w", p, ErrNotEmpty)
	}
	if err := fs.check(Request{Op: OpDelete, Path: full, Actor: actor, Info: fs.infoScratch(n)}); err != nil {
		return err
	}
	if n.kind == kindFile {
		if err := fs.chargeSpace(full, -int64(len(n.data))); err != nil {
			return err
		}
		// The bytes go with their space: an unlinked node must not keep an
		// adopted buffer alive (or aliased) for as long as a handle holds it.
		n.data, n.shared = nil, false
	}
	removeChild(n.parent, n)
	fs.emit(Event{Kind: EvDelete, Path: full, Actor: actor, IsDir: n.kind == kindDir})
	return nil
}

// RemoveAll removes p and, if it is a directory, everything beneath it.
func (fs *FS) RemoveAll(p string, actor UID) error {
	n, err := fs.lookup(p, false)
	if err != nil {
		if errors.Is(err, ErrNotExist) {
			return nil
		}
		return err
	}
	if n.kind == kindDir {
		// Snapshot: Remove mutates the slice while we iterate.
		kids := append([]*node(nil), n.children...)
		for _, c := range kids {
			if err := fs.RemoveAll(childPath(n, c.name), actor); err != nil {
				return err
			}
		}
	}
	return fs.Remove(n.path(), actor)
}

// Rename moves oldPath to newPath, overwriting a regular file at newPath if
// present. It emits MOVED_FROM / MOVED_TO events, which is how both the
// "move a pre-stored APK over the target" attack and the DAPP defense
// observe replacements.
func (fs *FS) Rename(oldPath, newPath string, actor UID) error {
	if err := fs.injectErr(fault.SiteVFSRename, oldPath); err != nil {
		return fmt.Errorf("rename %q: %w", oldPath, err)
	}
	n, oldFull, err := fs.lookupFull(oldPath, false)
	if err != nil {
		return err
	}
	if n.parent == nil {
		return fmt.Errorf("rename /: %w", ErrInvalidPath)
	}
	newParent, newName, newClean, err := fs.parentOf(newPath)
	if err != nil {
		return err
	}
	newFull := fullFor(newParent, newName, newClean)
	req := Request{Op: OpRename, Path: oldFull, Other: newFull, Actor: actor, Info: fs.infoScratch(n)}
	if err := fs.check(req); err != nil {
		return err
	}
	if existing := newParent.child(newName); existing != nil {
		if existing.kind == kindDir {
			return fmt.Errorf("%q: %w", newFull, ErrIsDir)
		}
		if err := fs.check(Request{Op: OpDelete, Path: newFull, Actor: actor, Info: fs.infoScratch(existing)}); err != nil {
			return err
		}
		if err := fs.chargeSpace(newFull, -int64(len(existing.data))); err != nil {
			return err
		}
	}
	// Move capacity accounting across mounts if needed.
	if n.kind == kindFile {
		size := int64(len(n.data))
		oldMount, newMount := fs.mountFor(oldFull), fs.mountFor(newFull)
		if oldMount != newMount {
			if err := fs.chargeSpace(newFull, size); err != nil {
				return err
			}
			if err := fs.chargeSpace(oldFull, -size); err != nil {
				return err
			}
		}
	}
	removeChild(n.parent, n)
	fs.emit(Event{Kind: EvMovedFrom, Path: oldFull, Actor: actor, IsDir: n.kind == kindDir})
	n.parent = newParent
	n.name = newName
	n.modTime = fs.now()
	invalidatePaths(n)
	n.cpath = newFull
	addChild(newParent, newName, n)
	fs.emit(Event{Kind: EvMovedTo, Path: newFull, Actor: actor, IsDir: n.kind == kindDir})
	return nil
}

// List returns the entries of the directory at p, sorted by name.
func (fs *FS) List(p string) ([]Info, error) {
	n, err := fs.lookup(p, true)
	if err != nil {
		return nil, err
	}
	if n.kind != kindDir {
		return nil, fmt.Errorf("%q: %w", p, ErrNotDir)
	}
	infos := make([]Info, 0, len(n.children))
	for _, c := range n.children {
		infos = append(infos, c.info())
	}
	return infos, nil
}

// Walk visits every path under root in depth-first lexical order.
func (fs *FS) Walk(root string, fn func(Info) error) error {
	n, err := fs.lookup(root, true)
	if err != nil {
		return err
	}
	return walkNode(n, fn)
}

func walkNode(n *node, fn func(Info) error) error {
	if err := fn(n.info()); err != nil {
		return err
	}
	if n.kind != kindDir {
		return nil
	}
	// Snapshot: fn may create or remove entries under n.
	kids := append([]*node(nil), n.children...)
	for _, c := range kids {
		if err := walkNode(c, fn); err != nil {
			return err
		}
	}
	return nil
}

func childPath(parent *node, name string) string {
	pp := parent.path()
	if pp == "/" {
		return "/" + name
	}
	return pp + "/" + name
}

// pathIs reports whether n's canonical full path equals p without building
// the path: components are compared from the tail upward, stopping early at
// the first memoized ancestor. Used to decide when a caller-supplied cleaned
// path can be reused instead of re-concatenated — path-string building was
// the top allocator in arena-reuse profiles.
func (n *node) pathIs(p string) bool {
	cur, rest := n, p
	for {
		if cur.cpath != "" {
			return cur.cpath == rest
		}
		if cur.parent == nil {
			return rest == "" || rest == "/"
		}
		k := len(rest) - len(cur.name)
		if k < 1 || rest[k-1] != '/' || rest[k:] != cur.name {
			return false
		}
		rest = rest[:k-1]
		cur = cur.parent
	}
}

// fullFor returns the canonical path of name under parent. When clean (the
// cleaned caller-supplied path) already ends in name and its directory
// portion matches parent, it is returned as-is — the no-symlink common case,
// which costs zero allocations and memoizes parent's path for free.
func fullFor(parent *node, name, clean string) string {
	k := len(clean) - len(name)
	if k >= 1 && clean[k-1] == '/' && clean[k:] == name {
		dir := clean[:k-1]
		if dir == "" {
			dir = "/"
		}
		if parent.pathIs(dir) {
			if parent.cpath == "" && parent.parent != nil {
				parent.cpath = dir
			}
			return clean
		}
	}
	return childPath(parent, name)
}

// lookupFull resolves p like lookup and additionally returns the node's
// canonical full path. When no symlink was crossed, the cleaned input is
// that path and is memoized into the node instead of being rebuilt later.
func (fs *FS) lookupFull(p string, followLast bool) (*node, string, error) {
	n, clean, errno := fs.walkCore(p, followLast, 0)
	if errno != nil {
		if clean == "" {
			return nil, "", errno
		}
		return nil, "", &pathError{clean, errno}
	}
	if n.cpath == "" && n.parent != nil && n.pathIs(clean) {
		n.cpath = clean
	}
	return n, n.path(), nil
}
