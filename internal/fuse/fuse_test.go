package fuse

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/vfs"
)

const (
	storeApp vfs.UID = 10010 // the installer that owns downloaded APKs
	attacker vfs.UID = 10666 // holds WRITE_EXTERNAL_STORAGE, nothing else
	noPerms  vfs.UID = 10777 // holds no storage permission
)

// grantAll emulates a PackageManager grant table where storeApp and
// attacker hold the storage permissions.
func grants(uid vfs.UID, p string) bool {
	if uid == noPerms {
		return false
	}
	return p == perm.WriteExternalStorage || p == perm.ReadExternalStorage
}

func newSDCard(t *testing.T, patched bool) (*vfs.FS, *Daemon) {
	t.Helper()
	fs := vfs.New(func() time.Duration { return 0 })
	d := New("/sdcard", grants)
	d.SetPatched(patched)
	if err := fs.MkdirAll("/sdcard", vfs.Root, vfs.ModeDir); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mount("/sdcard", d, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/sdcard/store", storeApp, vfs.ModeDir); err != nil {
		t.Fatal(err)
	}
	return fs, d
}

func TestStockFUSEIgnoresDAC(t *testing.T) {
	fs, _ := newSDCard(t, false)
	// storeApp downloads an APK, mode is presented as shared regardless.
	if err := fs.WriteFile("/sdcard/store/app.apk", []byte("legit"), storeApp, vfs.ModePrivate); err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat("/sdcard/store/app.apk")
	if info.Mode != vfs.ModeShared {
		t.Errorf("mode = %o, want %o (FUSE presents shared modes)", info.Mode, vfs.ModeShared)
	}
	// Any app with WRITE_EXTERNAL_STORAGE can replace it: the GIA root cause.
	if err := fs.WriteFile("/sdcard/store/app.apk", []byte("evil"), attacker, 0); err != nil {
		t.Fatalf("stock FUSE blocked the overwrite: %v", err)
	}
	got, _ := fs.ReadFile("/sdcard/store/app.apk", attacker)
	if string(got) != "evil" {
		t.Errorf("content = %q", got)
	}
}

func TestStorageCardPermissionRequired(t *testing.T) {
	fs, _ := newSDCard(t, false)
	if err := fs.WriteFile("/sdcard/store/f", []byte("x"), noPerms, 0); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("write without permission = %v, want ErrPermission", err)
	}
	if err := fs.WriteFile("/sdcard/store/f", []byte("x"), storeApp, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("/sdcard/store/f", noPerms); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("read without permission = %v, want ErrPermission", err)
	}
	if _, err := fs.ReadFile("/sdcard/store/f", attacker); err != nil {
		t.Errorf("read with permission failed: %v", err)
	}
}

func TestPatchedFUSEDerivesProtectedAPKMode(t *testing.T) {
	fs, d := newSDCard(t, true)
	if err := fs.WriteFile("/sdcard/store/app.apk", []byte("legit"), storeApp, 0); err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat("/sdcard/store/app.apk")
	if info.Mode != vfs.ModeProtectedAPK {
		t.Errorf("APK mode = %o, want 640", info.Mode)
	}
	if owner, ok := d.Protected("/sdcard/store/app.apk"); !ok || owner != storeApp {
		t.Errorf("APK list entry = %d, %v", owner, ok)
	}
	// Non-APK files are unaffected.
	if err := fs.WriteFile("/sdcard/store/notes.txt", []byte("x"), storeApp, 0); err != nil {
		t.Fatal(err)
	}
	info, _ = fs.Stat("/sdcard/store/notes.txt")
	if info.Mode != vfs.ModeShared {
		t.Errorf("txt mode = %o, want shared", info.Mode)
	}
}

func TestPatchedFUSEBlocksOverwriteDeleteRename(t *testing.T) {
	fs, _ := newSDCard(t, true)
	if err := fs.WriteFile("/sdcard/store/app.apk", []byte("legit"), storeApp, 0); err != nil {
		t.Fatal(err)
	}

	if err := fs.WriteFile("/sdcard/store/app.apk", []byte("evil"), attacker, 0); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("attacker overwrite = %v, want ErrPermission", err)
	}
	if err := fs.Remove("/sdcard/store/app.apk", attacker); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("attacker delete = %v, want ErrPermission", err)
	}
	if err := fs.Rename("/sdcard/store/app.apk", "/sdcard/stolen.apk", attacker); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("attacker rename = %v, want ErrPermission", err)
	}
	// Moving an attacker file over the protected APK is also blocked.
	if err := fs.WriteFile("/sdcard/evil.apk", []byte("evil"), attacker, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/sdcard/evil.apk", "/sdcard/store/app.apk", attacker); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("rename over protected APK = %v, want ErrPermission", err)
	}

	// The legitimate owner can still do all of it.
	if err := fs.WriteFile("/sdcard/store/app.apk", []byte("update"), storeApp, 0); err != nil {
		t.Errorf("owner overwrite blocked: %v", err)
	}
	got, _ := fs.ReadFile("/sdcard/store/app.apk", storeApp)
	if string(got) != "update" {
		t.Errorf("content = %q", got)
	}
}

func TestPatchedFUSEBlocksPathAlteration(t *testing.T) {
	fs, d := newSDCard(t, true)
	for _, name := range []string{"app.apk", "b.apk", "c.apk"} {
		if err := fs.WriteFile("/sdcard/store/"+name, []byte("legit"), storeApp, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Renaming the whole directory away (to recreate it with a malicious
	// APK) is the bypass handle_rename prevents; so is deleting the tree.
	// Each refusal names the smallest protected path, whatever order the
	// APK list's map yields its three candidates in.
	const want = "would affect protected APK /sdcard/store/app.apk:"
	for _, op := range []struct {
		name string
		do   func() error
	}{
		{"directory rename", func() error { return fs.Rename("/sdcard/store", "/sdcard/hidden", attacker) }},
		// vfs.Remove refuses a non-empty directory before the daemon sees
		// it, so the directory delete goes to the daemon's check directly.
		{"directory delete", func() error {
			return d.Check(fs, vfs.Request{Op: vfs.OpDelete, Path: "/sdcard/store", Actor: attacker, Info: &vfs.Info{IsDir: true}})
		}},
	} {
		first := ""
		for i := 0; i < 50; i++ {
			err := op.do()
			if !errors.Is(err, vfs.ErrPermission) {
				t.Fatalf("%s = %v, want ErrPermission", op.name, err)
			}
			if i == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("%s error changed between tries:\n%s\n%s", op.name, first, err)
			}
		}
		if !strings.Contains(first, want) {
			t.Errorf("%s error = %q, want it to name the smallest protected path", op.name, first)
		}
	}
	if err := fs.Remove("/sdcard/store/app.apk", attacker); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("delete = %v, want ErrPermission", err)
	}
	// The owner may reorganize its own directory.
	if err := fs.Rename("/sdcard/store", "/sdcard/store2", storeApp); err != nil {
		t.Errorf("owner directory rename blocked: %v", err)
	}
}

func TestPatchedFUSESystemAlwaysAllowed(t *testing.T) {
	fs, d := newSDCard(t, true)
	if err := fs.WriteFile("/sdcard/store/app.apk", []byte("legit"), storeApp, 0); err != nil {
		t.Fatal(err)
	}
	// The user deletes the file through Settings (a system process).
	if err := fs.Remove("/sdcard/store/app.apk", vfs.System); err != nil {
		t.Fatalf("system delete blocked: %v", err)
	}
	if _, ok := d.Protected("/sdcard/store/app.apk"); ok {
		t.Error("APK list retains a deleted file")
	}
}

func TestAPKListFollowsOwnerRename(t *testing.T) {
	fs, d := newSDCard(t, true)
	if err := fs.WriteFile("/sdcard/store/tmp.apk", []byte("x"), storeApp, 0); err != nil {
		t.Fatal(err)
	}
	// Xiaomi-style: the installer renames the temp name to the official
	// name when the download completes.
	if err := fs.Rename("/sdcard/store/tmp.apk", "/sdcard/store/final.apk", storeApp); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Protected("/sdcard/store/tmp.apk"); ok {
		t.Error("old path still protected")
	}
	if owner, ok := d.Protected("/sdcard/store/final.apk"); !ok || owner != storeApp {
		t.Errorf("new path protection = %d, %v", owner, ok)
	}
	// And the protection still holds at the new path.
	if err := fs.WriteFile("/sdcard/store/final.apk", []byte("evil"), attacker, 0); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("attacker overwrite after rename = %v, want ErrPermission", err)
	}
}

func TestProtectionPersistsAcrossPatchToggle(t *testing.T) {
	fs, d := newSDCard(t, true)
	if err := fs.WriteFile("/sdcard/store/app.apk", []byte("x"), storeApp, 0); err != nil {
		t.Fatal(err)
	}
	d.SetPatched(false)
	if !d.Patched() {
		_ = 0 // SetPatched(false) leaves the list intact
	}
	d.SetPatched(true)
	if err := fs.WriteFile("/sdcard/store/app.apk", []byte("evil"), attacker, 0); !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("protection lost across toggle: %v", err)
	}
	if len(d.APKList()) != 1 {
		t.Errorf("APKList = %v", d.APKList())
	}
}
