package vfs

import (
	"fmt"
	"io"

	"github.com/ghost-installer/gia/internal/fault"
)

// OpenFlag selects how a file is opened.
type OpenFlag int

// Open flags.
const (
	FlagRead OpenFlag = 1 << iota
	FlagWrite
	FlagCreate
	FlagTrunc
	FlagAppend
)

// Handle is an open file descriptor. Closing a handle emits CLOSE_WRITE if
// any write happened through it and CLOSE_NOWRITE otherwise — the exact
// signal the paper's attacks and defenses key on.
type Handle struct {
	fs     *FS
	node   *node
	path   string
	actor  UID
	flags  OpenFlag
	offset int64
	wrote  bool
	closed bool
	// view is the prefix of the immutable buffer this handle's WriteShared
	// calls adopted, with that buffer's capacity: the node holds the same
	// bytes capped at their length, and the handle alone can extend them.
	view []byte
}

// Open opens the file at p on behalf of actor. FlagCreate creates a missing
// regular file (mode filtered through the mount policy's DeriveMode);
// FlagTrunc empties it. Opening emits an OPEN event.
func (fs *FS) Open(p string, actor UID, flags OpenFlag, mode Mode) (*Handle, error) {
	if flags&(FlagRead|FlagWrite) == 0 {
		return nil, fmt.Errorf("open %q: need read or write: %w", p, ErrInvalidPath)
	}
	if err := fs.injectErr(fault.SiteVFSOpen, p); err != nil {
		return nil, fmt.Errorf("open %q: %w", p, err)
	}
	// walkCore directly: the FlagCreate miss is the common case for staging
	// writes, and the wrapped not-exist error would be allocated only to be
	// discarded.
	n, wclean, errno := fs.walkCore(p, true, 0)
	var full string
	created := false
	if errno != nil {
		if flags&FlagCreate == 0 {
			if wclean == "" {
				return nil, errno
			}
			return nil, &pathError{wclean, errno}
		}
		parent, name, clean, perr := fs.parentOf(p)
		if perr != nil {
			return nil, perr
		}
		full = fullFor(parent, name, clean)
		if cerr := fs.check(Request{Op: OpCreate, Path: full, Actor: actor}); cerr != nil {
			return nil, cerr
		}
		derived := fs.policyFor(full).DeriveMode(fs, full, actor, mode)
		n = fs.newNode()
		n.kind = kindFile
		n.name = name
		n.parent = parent
		n.cpath = full
		n.owner = actor
		n.mode = derived
		n.modTime = fs.now()
		addChild(parent, name, n)
		created = true
		fs.emit(Event{Kind: EvCreate, Path: full, Actor: actor})
	} else {
		if n.cpath == "" && n.parent != nil && n.pathIs(wclean) {
			n.cpath = wclean
		}
		full = n.path()
	}
	if n.kind == kindDir {
		return nil, fmt.Errorf("open %q: %w", p, ErrIsDir)
	}
	if flags&FlagRead != 0 && !created {
		if err := fs.check(Request{Op: OpRead, Path: full, Actor: actor, Info: fs.infoScratch(n)}); err != nil {
			return nil, err
		}
	}
	if flags&FlagWrite != 0 && !created {
		if err := fs.check(Request{Op: OpWrite, Path: full, Actor: actor, Info: fs.infoScratch(n)}); err != nil {
			return nil, err
		}
	}
	h := &Handle{fs: fs, node: n, path: full, actor: actor, flags: flags}
	fs.emit(Event{Kind: EvOpen, Path: full, Actor: actor})
	if flags&FlagTrunc != 0 && !created {
		if err := fs.chargeSpace(full, -int64(len(n.data))); err != nil {
			return nil, err
		}
		n.data = nil
		n.shared = false
		n.modTime = fs.now()
		h.wrote = true
		fs.emit(Event{Kind: EvModify, Path: full, Actor: actor})
	}
	if flags&FlagAppend != 0 {
		h.offset = int64(len(n.data))
	}
	return h, nil
}

// Path reports the (resolved) path the handle refers to.
func (h *Handle) Path() string { return h.path }

// Size reports the current file size.
func (h *Handle) Size() int64 { return int64(len(h.node.data)) }

// Write appends p at the current offset, emitting a MODIFY event.
func (h *Handle) Write(p []byte) (int, error) {
	if h.closed {
		return 0, ErrClosedHandle
	}
	if h.flags&FlagWrite == 0 {
		return 0, fmt.Errorf("write %q: read-only handle: %w", h.path, ErrPermission)
	}
	if err := h.fs.injectErr(fault.SiteVFSWrite, h.path); err != nil {
		return 0, fmt.Errorf("write %q: %w", h.path, err)
	}
	end := h.offset + int64(len(p))
	if len(p) > 0 && h.node.shared {
		// Copy-on-write: the backing bytes are an adopted shared buffer
		// still aliased by their publisher, so mutating them in place would
		// corrupt every other reader (a TOCTOU overwrite of a staged APK
		// must never reach the market's hosted listing). Unshare first.
		h.node.data = append([]byte(nil), h.node.data...)
		h.node.shared = false
	}
	if grow := end - int64(len(h.node.data)); grow > 0 {
		if err := h.fs.chargeSpace(h.path, grow); err != nil {
			return 0, err
		}
		if end <= int64(cap(h.node.data)) {
			old := len(h.node.data)
			h.node.data = h.node.data[:end]
			clear(h.node.data[old:])
		} else {
			// Grow with headroom so chunked downloads don't reallocate and
			// re-zero the whole file on every 64 KiB chunk.
			newCap := 2 * cap(h.node.data)
			if int64(newCap) < end {
				newCap = int(end)
			}
			nd := make([]byte, end, newCap)
			copy(nd, h.node.data)
			h.node.data = nd
			h.node.shared = false
		}
	}
	copy(h.node.data[h.offset:end], p)
	h.offset = end
	h.wrote = true
	h.node.modTime = h.fs.now()
	h.fs.emit(Event{Kind: EvModify, Path: h.path, Actor: h.actor})
	return len(p), nil
}

// Read reads from the current offset, emitting an ACCESS event.
func (h *Handle) Read(p []byte) (int, error) {
	if h.closed {
		return 0, ErrClosedHandle
	}
	if h.flags&FlagRead == 0 {
		return 0, fmt.Errorf("read %q: write-only handle: %w", h.path, ErrPermission)
	}
	if err := h.fs.injectErr(fault.SiteVFSRead, h.path); err != nil {
		return 0, fmt.Errorf("read %q: %w", h.path, err)
	}
	if h.offset >= int64(len(h.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.node.data[h.offset:])
	h.offset += int64(n)
	h.fs.emit(Event{Kind: EvAccess, Path: h.path, Actor: h.actor})
	return n, nil
}

// ReadAt reads len(p) bytes at off without moving the offset.
func (h *Handle) ReadAt(p []byte, off int64) (int, error) {
	if h.closed {
		return 0, ErrClosedHandle
	}
	if h.flags&FlagRead == 0 {
		return 0, fmt.Errorf("read %q: write-only handle: %w", h.path, ErrPermission)
	}
	if err := h.fs.injectErr(fault.SiteVFSRead, h.path); err != nil {
		return 0, fmt.Errorf("read %q: %w", h.path, err)
	}
	if off >= int64(len(h.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.node.data[off:])
	h.fs.emit(Event{Kind: EvAccess, Path: h.path, Actor: h.actor})
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Close releases the handle, emitting CLOSE_WRITE if the handle wrote and
// CLOSE_NOWRITE otherwise. Closing twice is an error.
func (h *Handle) Close() error {
	if h.closed {
		return ErrClosedHandle
	}
	h.closed = true
	h.view = nil
	kind := EvCloseNoWrite
	if h.wrote {
		kind = EvCloseWrite
	}
	h.fs.emit(Event{Kind: kind, Path: h.path, Actor: h.actor})
	return nil
}

// WriteFile creates or replaces the file at p with data in one open-write-
// close sequence (OPEN, MODIFY, CLOSE_WRITE events).
func (fs *FS) WriteFile(p string, data []byte, actor UID, mode Mode) error {
	h, err := fs.Open(p, actor, FlagWrite|FlagCreate|FlagTrunc, mode)
	if err != nil {
		return err
	}
	if _, err := h.Write(data); err != nil {
		// Best-effort close; the write error is the one to report.
		_ = h.Close()
		return err
	}
	return h.Close()
}

// ReadFile returns a copy of the file's content (OPEN, ACCESS,
// CLOSE_NOWRITE events).
func (fs *FS) ReadFile(p string, actor UID) ([]byte, error) {
	h, err := fs.Open(p, actor, FlagRead, 0)
	if err != nil {
		return nil, err
	}
	defer func() { _ = h.Close() }()
	out := make([]byte, h.Size())
	if len(out) == 0 {
		return out, nil
	}
	if _, err := h.ReadAt(out, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return out, nil
}

// WriteShared is Write for an immutable shared buffer: instead of copying p
// into the file, the file adopts p as its backing store, capped so any
// later growth reallocates rather than scribbling past the shared bytes.
// An empty file at offset 0 adopts p outright; a file this handle adopted
// is extended in place when p is the next contiguous slice of the same
// buffer, which is how a chunked download of hosted bytes stages them
// without a copy. Any other write copies, exactly as Write. Checks, fault
// probes, space accounting and events match Write exactly, and callers
// must never modify p afterwards. The adopted buffer is marked shared on
// the node: any later write that is not such an extension unshares it
// first (copy-on-write in Write), so the publisher's bytes stay immutable
// no matter how the file is later mutated.
func (h *Handle) WriteShared(p []byte) (int, error) {
	if h.closed {
		return 0, ErrClosedHandle
	}
	if h.flags&FlagWrite == 0 {
		return 0, fmt.Errorf("write %q: read-only handle: %w", h.path, ErrPermission)
	}
	adopt := h.offset == 0 && len(h.node.data) == 0
	if !adopt && !h.extends(p) {
		return h.Write(p)
	}
	if err := h.fs.injectErr(fault.SiteVFSWrite, h.path); err != nil {
		return 0, fmt.Errorf("write %q: %w", h.path, err)
	}
	if len(p) > 0 {
		if err := h.fs.chargeSpace(h.path, int64(len(p))); err != nil {
			return 0, err
		}
		if adopt {
			h.view = p
		} else {
			h.view = h.view[:len(h.view)+len(p)]
		}
		h.node.data = h.view[:len(h.view):len(h.view)]
		h.node.shared = true
	}
	h.offset += int64(len(p))
	h.wrote = true
	h.node.modTime = h.fs.now()
	h.fs.emit(Event{Kind: EvModify, Path: h.path, Actor: h.actor})
	return len(p), nil
}

// extends reports whether p continues the buffer this handle adopted: the
// file still holds exactly the adopted prefix, the handle sits at its end,
// and p starts at the next byte of the same backing array. Reslicing view
// within its capacity never leaves that array, so equal addresses mean the
// same buffer, never a neighbouring allocation.
func (h *Handle) extends(p []byte) bool {
	v, d := h.view, h.node.data
	return len(p) > 0 && len(v) > 0 && h.node.shared &&
		len(d) == len(v) && &d[0] == &v[0] && h.offset == int64(len(v)) &&
		cap(v)-len(v) >= len(p) && &v[:len(v)+1][len(v)] == &p[0]
}

// WriteFileShared is WriteFile for an immutable shared buffer: the created
// or truncated file aliases data instead of copying it, with the same
// OPEN/MODIFY/CLOSE_WRITE event stream. Installers copy the same encoded
// APK image onto every reset device of a sweep; sharing the buffer removes
// the dominant per-schedule allocation.
func (fs *FS) WriteFileShared(p string, data []byte, actor UID, mode Mode) error {
	h, err := fs.Open(p, actor, FlagWrite|FlagCreate|FlagTrunc, mode)
	if err != nil {
		return err
	}
	if _, err := h.WriteShared(data); err != nil {
		_ = h.Close()
		return err
	}
	return h.Close()
}

// ReadFileShared returns the file's content without copying, emitting the
// same OPEN/ACCESS/CLOSE_NOWRITE sequence (and probing the same fault
// sites) as ReadFile. The returned slice aliases the live file data:
// callers must treat it as read-only and finish with it before the
// simulation writes to the same file. Verification loops read staged APKs
// hundreds of times per install, so the copy in ReadFile dominates their
// allocation profile.
func (fs *FS) ReadFileShared(p string, actor UID) ([]byte, error) {
	if err := fs.injectErr(fault.SiteVFSOpen, p); err != nil {
		return nil, fmt.Errorf("open %q: %w", p, err)
	}
	n, full, err := fs.lookupFull(p, true)
	if err != nil {
		return nil, err
	}
	if n.kind == kindDir {
		return nil, fmt.Errorf("open %q: %w", p, ErrIsDir)
	}
	if err := fs.check(Request{Op: OpRead, Path: full, Actor: actor, Info: fs.infoScratch(n)}); err != nil {
		return nil, err
	}
	fs.emit(Event{Kind: EvOpen, Path: full, Actor: actor})
	data := n.data
	if len(data) > 0 {
		if err := fs.injectErr(fault.SiteVFSRead, full); err != nil {
			fs.emit(Event{Kind: EvCloseNoWrite, Path: full, Actor: actor})
			return nil, fmt.Errorf("read %q: %w", full, err)
		}
		fs.emit(Event{Kind: EvAccess, Path: full, Actor: actor})
	}
	fs.emit(Event{Kind: EvCloseNoWrite, Path: full, Actor: actor})
	return data, nil
}

// ReadTail returns the last n bytes of the file at p — how the wait-and-see
// attacker polls for an APK's End-Of-Central-Directory record.
func (fs *FS) ReadTail(p string, n int, actor UID) ([]byte, error) {
	h, err := fs.Open(p, actor, FlagRead, 0)
	if err != nil {
		return nil, err
	}
	defer func() { _ = h.Close() }()
	size := h.Size()
	if int64(n) > size {
		n = int(size)
	}
	out := make([]byte, n)
	if n == 0 {
		return out, nil
	}
	if _, err := h.ReadAt(out, size-int64(n)); err != nil && err != io.EOF {
		return nil, err
	}
	return out, nil
}
