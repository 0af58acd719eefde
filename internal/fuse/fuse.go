// Package fuse models Android's FUSE daemon, the userspace wrapper that
// enforces external-storage ("/sdcard") access policy.
//
// In stock Android the daemon makes DAC irrelevant on the SD card: any app
// holding WRITE_EXTERNAL_STORAGE may create, overwrite, move or delete any
// file there, which is the root cause of the installation-hijacking attacks
// of Section III-B. The paper's system-level defense (Section V-C) patches
// three functions of the daemon; this package implements both behaviours:
//
//   - derive_permissions_locked: newly created *.apk files get mode 640 and
//     are recorded, with their owner, on an APK list;
//   - check_caller_access_to_name: non-system callers other than the owner
//     cannot write to or delete a listed APK even with the storage
//     permission;
//   - handle_rename: path alterations (rename or delete of a directory)
//     are refused when the affected subtree contains APKs the caller does
//     not own, and a listed APK cannot be renamed over.
package fuse

import (
	"fmt"
	"strings"
	"time"

	"github.com/ghost-installer/gia/internal/fault"
	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/vfs"
)

// PermChecker reports whether uid holds the named Android permission. The
// device wires this to the PackageManager's grant table.
type PermChecker func(uid vfs.UID, permission string) bool

// Daemon is the FUSE daemon for one external-storage mount. Install it with
// FS.Mount(root, daemon, capacity).
type Daemon struct {
	root     string
	perms    PermChecker
	patched  bool
	apkList  map[string]vfs.UID // protected APK path -> owning UID
	injector fault.Injector
	now      func() time.Duration
}

// SetFaultInjector installs (or, with nil, removes) the fault hook probed on
// every access check (fault.SiteFuseCheck): an error-kind fault surfaces as
// a transient daemon failure, denying an operation the policy would allow.
func (d *Daemon) SetFaultInjector(fi fault.Injector) { d.injector = fi }

// SetClock supplies the virtual clock used to timestamp fault probes
// (Scheduler.Now); without one, probes report time zero.
func (d *Daemon) SetClock(now func() time.Duration) { d.now = now }

var _ vfs.Policy = (*Daemon)(nil)

// New creates a daemon guarding the subtree rooted at root (typically
// "/sdcard") using perms to evaluate storage permissions.
func New(root string, perms PermChecker) *Daemon {
	return &Daemon{
		root:    root,
		perms:   perms,
		apkList: make(map[string]vfs.UID),
	}
}

// Reset returns the daemon to its freshly-created state: patch disabled,
// APK list empty, fault injector removed. The mount root, permission
// checker and clock are boot-time wiring and survive.
func (d *Daemon) Reset() {
	d.patched = false
	d.apkList = make(map[string]vfs.UID)
	d.injector = nil
}

// Root reports the guarded mount point.
func (d *Daemon) Root() string { return d.root }

// SetPatched enables or disables the Section V-C protection scheme.
// Disabling does not clear the APK list, so re-enabling resumes protection
// of previously recorded APKs.
func (d *Daemon) SetPatched(on bool) { d.patched = on }

// Patched reports whether the protection scheme is active.
func (d *Daemon) Patched() bool { return d.patched }

// Protected reports the recorded owner of path, if it is a listed APK.
func (d *Daemon) Protected(path string) (vfs.UID, bool) {
	owner, ok := d.apkList[path]
	return owner, ok
}

// APKList returns a copy of the protected-APK table.
func (d *Daemon) APKList() map[string]vfs.UID {
	out := make(map[string]vfs.UID, len(d.apkList))
	for p, u := range d.apkList {
		out[p] = u
	}
	return out
}

// Check implements vfs.Policy with the stock external-storage semantics,
// tightened by the patch when enabled.
func (d *Daemon) Check(fs *vfs.FS, req vfs.Request) error {
	if d.injector != nil {
		var now time.Duration
		if d.now != nil {
			now = d.now()
		}
		if act := d.injector.Probe(fault.SiteFuseCheck, req.Path, now); act.Kind == fault.KindError {
			return fmt.Errorf("fuse: %s %s: %w", req.Op, req.Path, act.Err)
		}
	}
	if req.Actor.IsSystem() {
		// The protected file can always be handled by a system process
		// (e.g. the user freeing space through Settings). System deletes
		// and renames keep the APK list in sync.
		d.maintainList(req)
		return nil
	}
	switch req.Op {
	case vfs.OpRead:
		if !d.canRead(req.Actor) {
			return fmt.Errorf("fuse: read %s without storage permission: %w", req.Path, vfs.ErrPermission)
		}
		return nil
	case vfs.OpCreate, vfs.OpWrite, vfs.OpDelete, vfs.OpRename, vfs.OpChmod:
		if !d.canWrite(req.Actor) {
			return fmt.Errorf("fuse: %s %s without WRITE_EXTERNAL_STORAGE: %w", req.Op, req.Path, vfs.ErrPermission)
		}
	default:
		return fmt.Errorf("fuse: %s %s: unknown op: %w", req.Op, req.Path, vfs.ErrInvalidPath)
	}
	if !d.patched {
		return nil
	}
	if err := d.checkCallerAccess(req); err != nil {
		return err
	}
	d.maintainList(req)
	return nil
}

// checkCallerAccess is the patched check_caller_access_to_name plus
// handle_rename logic.
func (d *Daemon) checkCallerAccess(req vfs.Request) error {
	switch req.Op {
	case vfs.OpWrite, vfs.OpDelete, vfs.OpChmod:
		if owner, ok := d.apkList[req.Path]; ok && owner != req.Actor {
			return fmt.Errorf("fuse: %s protected APK %s (owner uid %d, caller uid %d): %w",
				req.Op, req.Path, owner, req.Actor, vfs.ErrPermission)
		}
		// A directory removal must not orphan protected APKs beneath it.
		if req.Op == vfs.OpDelete && req.Info != nil && req.Info.IsDir {
			if victim := d.subtreeVictim(req.Path, req.Actor); victim != "" {
				return fmt.Errorf("fuse: delete %s would affect protected APK %s: %w",
					req.Path, victim, vfs.ErrPermission)
			}
		}
		return nil
	case vfs.OpRename:
		// Moving a protected APK itself.
		if owner, ok := d.apkList[req.Path]; ok && owner != req.Actor {
			return fmt.Errorf("fuse: rename protected APK %s (owner uid %d): %w", req.Path, owner, vfs.ErrPermission)
		}
		// Moving onto a protected APK (the replacement attack).
		if owner, ok := d.apkList[req.Other]; ok && owner != req.Actor {
			return fmt.Errorf("fuse: rename over protected APK %s (owner uid %d): %w", req.Other, owner, vfs.ErrPermission)
		}
		// Altering a path that contains protected APKs.
		if req.Info != nil && req.Info.IsDir {
			if victim := d.subtreeVictim(req.Path, req.Actor); victim != "" {
				return fmt.Errorf("fuse: rename %s would affect protected APK %s: %w",
					req.Path, victim, vfs.ErrPermission)
			}
		}
		return nil
	default:
		return nil
	}
}

// subtreeVictim returns the lexicographically smallest protected APK under
// dir not owned by actor, so the refusal names the same file whatever the
// map's iteration order.
func (d *Daemon) subtreeVictim(dir string, actor vfs.UID) string {
	prefix, victim := dir+"/", ""
	for path, owner := range d.apkList {
		if owner != actor && strings.HasPrefix(path, prefix) && (victim == "" || path < victim) {
			victim = path
		}
	}
	return victim
}

// maintainList updates the APK list after an allowed destructive operation.
func (d *Daemon) maintainList(req vfs.Request) {
	switch req.Op {
	case vfs.OpDelete:
		delete(d.apkList, req.Path)
	case vfs.OpRename:
		if owner, ok := d.apkList[req.Path]; ok {
			delete(d.apkList, req.Path)
			d.apkList[req.Other] = owner
		}
		// Renaming a non-APK over a tracked APK (system only, or the
		// owner) drops the protection record for the overwritten file.
		if _, ok := d.apkList[req.Other]; ok && !isAPKPath(req.Path) {
			delete(d.apkList, req.Other)
		}
	}
}

// DeriveMode implements derive_permissions_locked: when the patch is on,
// every APK created on the mount becomes 640 and is recorded with its owner.
func (d *Daemon) DeriveMode(fs *vfs.FS, path string, actor vfs.UID, requested vfs.Mode) vfs.Mode {
	if d.patched && isAPKPath(path) {
		d.apkList[path] = actor
		return vfs.ModeProtectedAPK
	}
	// Stock FUSE presents shared-storage files with permissive modes; the
	// daemon's permission checks are what actually gate access.
	return vfs.ModeShared
}

func (d *Daemon) canRead(uid vfs.UID) bool {
	return d.perms(uid, perm.ReadExternalStorage) || d.perms(uid, perm.WriteExternalStorage)
}

func (d *Daemon) canWrite(uid vfs.UID) bool {
	return d.perms(uid, perm.WriteExternalStorage)
}

func isAPKPath(path string) bool {
	return strings.HasSuffix(path, ".apk")
}
