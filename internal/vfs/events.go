package vfs

import (
	"fmt"
	"path"
	"strings"
)

// EventKind is an inotify-style filesystem event type.
type EventKind int

// Event kinds. The names mirror the constants Android's FileObserver
// exposes; CLOSE_WRITE vs CLOSE_NOWRITE is the distinction the TOCTOU
// attackers of Section III-B fingerprint verification reads with.
const (
	EvCreate EventKind = 1 << iota
	EvOpen
	EvAccess
	EvModify
	EvCloseWrite
	EvCloseNoWrite
	EvDelete
	EvMovedFrom
	EvMovedTo
	EvAttrib
)

// EvAll matches every event kind.
const EvAll = EvCreate | EvOpen | EvAccess | EvModify | EvCloseWrite |
	EvCloseNoWrite | EvDelete | EvMovedFrom | EvMovedTo | EvAttrib

func (k EventKind) String() string {
	switch k {
	case EvCreate:
		return "CREATE"
	case EvOpen:
		return "OPEN"
	case EvAccess:
		return "ACCESS"
	case EvModify:
		return "MODIFY"
	case EvCloseWrite:
		return "CLOSE_WRITE"
	case EvCloseNoWrite:
		return "CLOSE_NOWRITE"
	case EvDelete:
		return "DELETE"
	case EvMovedFrom:
		return "MOVED_FROM"
	case EvMovedTo:
		return "MOVED_TO"
	case EvAttrib:
		return "ATTRIB"
	default:
		return fmt.Sprintf("EVENT(%d)", int(k))
	}
}

// Event describes one filesystem operation, delivered to watchers of the
// affected file's parent directory (inotify watches directories).
type Event struct {
	Kind  EventKind
	Path  string // full path of the affected file
	Actor UID    // UID that performed the operation
	IsDir bool
}

// Name returns the base name of the affected file.
func (e Event) Name() string { return path.Base(e.Path) }

func (e Event) String() string {
	return fmt.Sprintf("%s %s (uid %d)", e.Kind, e.Path, e.Actor)
}

// Watch is a subscription to events in one directory.
type Watch struct {
	fs     *FS
	dir    string
	mask   EventKind
	fn     func(Event)
	id     int
	closed bool
}

// Watch subscribes fn to events whose kind is in mask for files directly
// inside dir. Events are delivered synchronously, in operation order, at the
// virtual time the operation happens. The directory does not have to exist
// yet (Android's FileObserver behaves the same way for recreated dirs).
func (fs *FS) Watch(dir string, mask EventKind, fn func(Event)) (*Watch, error) {
	clean, err := cleanPath(dir)
	if err != nil {
		return nil, err
	}
	w := &Watch{fs: fs, dir: clean, mask: mask, fn: fn, id: fs.nextWID}
	fs.nextWID++
	fs.watchers[clean] = append(fs.watchers[clean], w)
	return w, nil
}

// Close cancels the subscription.
func (w *Watch) Close() {
	if w.closed {
		return
	}
	w.closed = true
	list := w.fs.watchers[w.dir]
	for i, other := range list {
		if other.id == w.id {
			w.fs.watchers[w.dir] = append(list[:i:i], list[i+1:]...)
			break
		}
	}
}

// Dir reports the watched directory.
func (w *Watch) Dir() string { return w.dir }

func (fs *FS) emit(ev Event) {
	// Event paths are already clean and absolute, so the containing
	// directory is a substring — path.Dir would re-Clean (and allocate)
	// on every event.
	dir := ev.Path
	if i := strings.LastIndexByte(ev.Path, '/'); i > 0 {
		dir = ev.Path[:i]
	} else {
		dir = "/"
	}
	// Copy the slice: a callback may add or close watches while we
	// iterate. Directories carry a handful of watchers at most, so the
	// copy normally fits a stack buffer instead of allocating per event.
	list := fs.watchers[dir]
	if len(list) == 0 {
		return
	}
	var stack [4]*Watch
	var snapshot []*Watch
	if len(list) <= len(stack) {
		snapshot = stack[:copy(stack[:], list)]
	} else {
		snapshot = make([]*Watch, len(list))
		copy(snapshot, list)
	}
	for _, w := range snapshot {
		if w.closed || w.mask&ev.Kind == 0 {
			continue
		}
		w.fn(ev)
	}
}
