// Package device composes the substrates into a bootable simulated Android
// device: virtual clock, filesystem with internal storage and a FUSE-wrapped
// SD card, PackageManagerService, PackageInstallerActivity, Download
// Manager, ActivityManagerService with IntentFirewall, process table and a
// connection to remote app markets.
package device

import (
	"fmt"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/dm"
	"github.com/ghost-installer/gia/internal/fuse"
	"github.com/ghost-installer/gia/internal/intents"
	"github.com/ghost-installer/gia/internal/market"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/pia"
	"github.com/ghost-installer/gia/internal/pm"
	"github.com/ghost-installer/gia/internal/procfs"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/sim"
	"github.com/ghost-installer/gia/internal/vfs"
)

// Profile describes the device to boot.
type Profile struct {
	Name   string // e.g. "galaxy-s6-verizon"
	Vendor string // e.g. "samsung"
	// PlatformKey signs the system image. Defaults to a vendor-derived key.
	PlatformKey *sig.Key
	// InternalBytes caps /data (0 = unlimited); SDCardBytes caps /sdcard.
	InternalBytes int64
	SDCardBytes   int64
	// RuntimePermissions selects the Android 6.0 permission model.
	RuntimePermissions bool
	// DMPolicy selects the Download Manager symlink policy
	// (default PolicyLegacy, the 4.4 behaviour).
	DMPolicy dm.SymlinkPolicy
	// DMRecheckGap overrides the 6.0 policy's check-to-use gap (for the
	// ablation experiments; zero keeps the default).
	DMRecheckGap time.Duration
	// Seed drives all randomness for the device's scheduler.
	Seed int64
}

// Device is one booted simulated phone.
type Device struct {
	Profile Profile
	Sched   *sim.Scheduler
	FS      *vfs.FS
	Fuse    *fuse.Daemon
	PMS     *pm.Service
	PIA     *pia.Activity
	DM      *dm.Manager
	AMS     *intents.AMS
	Procs   *procfs.Table
	Market  *market.Mux

	foregroundSvc map[string]bool
	// dataDirs caches the per-package app-private directory paths. It
	// deliberately survives Reset: the strings depend only on the package
	// name, and sweeps install the same packages every schedule.
	dataDirs map[string][3]string
}

// dataDirsFor returns the app-private tree for pkg (root, cache, files),
// building the path strings once per package name per device.
func (d *Device) dataDirsFor(pkg string) [3]string {
	if dirs, ok := d.dataDirs[pkg]; ok {
		return dirs
	}
	root := "/data/data/" + pkg
	dirs := [3]string{root, root + "/cache", root + "/files"}
	if d.dataDirs == nil {
		d.dataDirs = make(map[string][3]string)
	}
	if len(d.dataDirs) < 1024 {
		d.dataDirs[pkg] = dirs
	}
	return dirs
}

// Boot constructs and wires a device from a profile.
func Boot(p Profile) (*Device, error) {
	if p.PlatformKey == nil {
		vendor := p.Vendor
		if vendor == "" {
			vendor = "aosp"
		}
		p.PlatformKey = sig.NewKey(vendor + "-platform")
	}
	if p.DMPolicy == 0 {
		p.DMPolicy = dm.PolicyLegacy
	}
	sched := sim.New(p.Seed)
	fs := vfs.New(sched.Now)
	if err := prepareSkeleton(fs); err != nil {
		return nil, err
	}

	registry := perm.NewRegistry()
	pms := pm.New(fs, registry, pm.Options{
		PlatformKey:        p.PlatformKey,
		RuntimePermissions: p.RuntimePermissions,
		Now:                sched.Now,
	})

	fuseDaemon := fuse.New("/sdcard", pms.UIDHolds)
	fuseDaemon.SetClock(sched.Now)
	if err := fs.Mount("/sdcard", fuseDaemon, p.SDCardBytes); err != nil {
		return nil, fmt.Errorf("device: mount sdcard: %w", err)
	}
	if err := fs.Mount("/data", systemFS{}, p.InternalBytes); err != nil {
		return nil, fmt.Errorf("device: mount data: %w", err)
	}
	if err := fs.Mount("/system", systemFS{}, 0); err != nil {
		return nil, fmt.Errorf("device: mount system: %w", err)
	}

	mux := market.NewMux()
	dmgr, err := dm.New(fs, sched, mux, dm.Options{Policy: p.DMPolicy, RecheckGap: p.DMRecheckGap})
	if err != nil {
		return nil, fmt.Errorf("device: boot dm: %w", err)
	}

	procs := procfs.NewTable()
	d := &Device{
		Profile: p,
		Sched:   sched,
		FS:      fs,
		Fuse:    fuseDaemon,
		PMS:     pms,
		DM:      dmgr,
		Procs:   procs,
		Market:  mux,
	}
	d.AMS = intents.New(sched, procs, intents.Options{
		Perms: pms.UIDHolds,
		UIDOf: func(pkg string) (vfs.UID, bool) {
			if pkg == SystemSender {
				return vfs.System, true
			}
			if installed, ok := pms.Installed(pkg); ok {
				return installed.UID, true
			}
			return 0, false
		},
		IsSystemPkg: d.IsSystemPkg,
	})
	d.PIA = pia.New(fs, pms)

	pms.Subscribe(d.onPackageEvent)
	// Everything the boot wiring has created so far — the skeleton, the
	// DM's database directory — is factory image: stamp it so Reset keeps
	// those directories in place instead of rebuilding them per run.
	fs.MarkBaseline()
	return d, nil
}

// prepareSkeleton creates the factory directory layout shared by Boot and
// Reset.
func prepareSkeleton(fs *vfs.FS) error {
	for _, dir := range []string{"/data/app", "/data/data", "/sdcard/Download", "/system/app"} {
		if err := fs.MkdirAll(dir, vfs.Root, vfs.ModeDir); err != nil {
			return fmt.Errorf("device: prepare %s: %w", dir, err)
		}
	}
	return nil
}

// Reset returns the device to the state Boot leaves it in, under a new
// seed, without reconstructing any component: every service is cleared in
// place and the boot wiring (mounts, package-event subscription, factory
// directories) is re-established. It is the arena's fast path; the
// devicetest harness pins Reset ≡ Boot across attack/defense scenarios.
func (d *Device) Reset(seed int64) error {
	d.Profile.Seed = seed
	d.Sched.Reset(seed)
	d.FS.Reset()
	if err := prepareSkeleton(d.FS); err != nil {
		return err
	}
	d.PMS.Registry().Reset()
	d.PMS.Reset()
	d.Fuse.Reset()
	d.Market.Reset()
	if err := d.DM.Reset(dm.Options{Policy: d.Profile.DMPolicy, RecheckGap: d.Profile.DMRecheckGap}); err != nil {
		return fmt.Errorf("device: reset dm: %w", err)
	}
	d.Procs.Reset()
	d.AMS.Reset()
	d.foregroundSvc = nil
	// PIA is stateless beyond its fs/pms references; nothing to clear.
	d.PMS.Subscribe(d.onPackageEvent)
	return nil
}

// SystemSender is the package name used for OS-originated Intents.
const SystemSender = "android"

// onPackageEvent wires PMS state changes into the rest of the device:
// app-private directories, process registration and the PACKAGE_* system
// broadcasts that apps (including the DAPP defense) listen for.
func (d *Device) onPackageEvent(ev pm.Event) {
	switch ev.Action {
	case pm.ActionPackageAdded, pm.ActionPackageReplaced:
		dirs := d.dataDirsFor(ev.Package)
		if !d.FS.Exists(dirs[0]) {
			// The system creates the app-private tree and hands it to
			// the app's UID (installd's job on a real device).
			for _, dir := range dirs {
				_ = d.FS.MkdirAll(dir, vfs.System, vfs.ModeDir)
				_ = d.FS.Chown(dir, ev.UID, vfs.System)
			}
		}
		d.Procs.Register(ev.Package)
	case pm.ActionPackageRemoved:
		d.AMS.UnregisterPackage(ev.Package)
		_ = d.FS.RemoveAll("/data/data/"+ev.Package, vfs.System)
	}
	// Skip the broadcast outright when nobody subscribes to this action:
	// every install fires one, and the Extras map plus delivery machinery
	// are pure overhead in the (common) receiver-less sweep schedules.
	if !d.AMS.HasReceiver(ev.Action) {
		return
	}
	_, _ = d.AMS.SendBroadcast(SystemSender, intents.Intent{
		Action:    ev.Action,
		Extras:    map[string]string{"package": ev.Package},
		TargetPkg: "", // all interested receivers
	})
}

// IsSystemPkg reports whether pkg is a system app: pre-installed or signed
// with the device's platform key. The OS itself also qualifies.
func (d *Device) IsSystemPkg(pkg string) bool {
	if pkg == SystemSender {
		return true
	}
	p, ok := d.PMS.Installed(pkg)
	if !ok {
		return false
	}
	return p.SystemImage || p.Cert.Equal(d.PMS.PlatformCert())
}

// InstallSystemApp installs an APK as part of the factory image.
func (d *Device) InstallSystemApp(a *apk.APK) (*pm.Package, error) {
	p, err := d.PMS.InstallSystem(a)
	if err != nil {
		return nil, err
	}
	// Keep a copy under /system/app like a real image.
	path := "/system/app/" + p.Name() + ".apk"
	if err := d.FS.WriteFileShared(path, a.Encode(), vfs.Root, vfs.ModeWorldReadable); err != nil {
		return nil, fmt.Errorf("device: copy system apk: %w", err)
	}
	p.CodePath = path
	return p, nil
}

// UIDOf returns the UID of an installed package.
func (d *Device) UIDOf(pkg string) (vfs.UID, error) {
	p, ok := d.PMS.Installed(pkg)
	if !ok {
		return 0, fmt.Errorf("device: %s: %w", pkg, pm.ErrNotInstalled)
	}
	return p.UID, nil
}

// Foreground brings pkg's process to the foreground (the user opens the
// app). The package must be installed.
func (d *Device) Foreground(pkg string) error {
	if _, ok := d.PMS.Installed(pkg); !ok {
		return fmt.Errorf("device: %s: %w", pkg, pm.ErrNotInstalled)
	}
	d.Procs.Register(pkg)
	return d.Procs.SetForeground(pkg)
}

// Run drains the event queue (convenience passthrough).
func (d *Device) Run() { d.Sched.Run() }

// Snapshot is a structured view of device state for diagnostics and
// assertions.
type Snapshot struct {
	Packages     []PackageInfo
	SDCardUsed   int64
	InternalUsed int64
	DMHealthy    bool
	Foreground   string
}

// PackageInfo summarizes one installed package.
type PackageInfo struct {
	Name        string
	UID         vfs.UID
	VersionCode int
	Signer      string
	SystemImage bool
	Granted     []string
}

// Snapshot captures the device's current state.
func (d *Device) Snapshot() Snapshot {
	var s Snapshot
	for _, p := range d.PMS.Packages() {
		s.Packages = append(s.Packages, PackageInfo{
			Name:        p.Name(),
			UID:         p.UID,
			VersionCode: p.Manifest.VersionCode,
			Signer:      p.Cert.Subject,
			SystemImage: p.SystemImage,
			Granted:     p.GrantedPerms(),
		})
	}
	s.SDCardUsed, _, _ = d.FS.MountUsage("/sdcard")
	s.InternalUsed, _, _ = d.FS.MountUsage("/data")
	s.DMHealthy = d.DM.Healthy()
	s.Foreground, _ = d.Procs.Foreground()
	return s
}

// Record writes what the device shows an observer onto k as virtual-time
// instants: filesystem events under dirs ("fs"), package changes ("pm")
// and IntentFirewall alerts ("firewall"). With an AIT's steps merged in
// (installer.Result.Record, then Track.Sorted) this is the textual
// equivalent of the paper's attack demos. stop closes the filesystem
// watches; the package and firewall hooks last until the device's next
// Reset.
func (d *Device) Record(k *obs.Track, dirs ...string) (stop func(), err error) {
	var watches []*vfs.Watch
	stop = func() {
		for _, w := range watches {
			w.Close()
		}
	}
	for _, dir := range dirs {
		w, err := d.FS.Watch(dir, vfs.EvAll, func(ev vfs.Event) {
			k.InstantAt(d.Sched.Now(), "fs", ev.String())
		})
		if err != nil {
			stop()
			return nil, fmt.Errorf("device: watch %s: %w", dir, err)
		}
		watches = append(watches, w)
	}
	d.PMS.Subscribe(func(ev pm.Event) {
		k.InstantAt(d.Sched.Now(), "pm", fmt.Sprintf("%s %s (uid %d)", ev.Action, ev.Package, ev.UID))
	})
	d.AMS.Firewall().OnAlert(func(a intents.Alert) {
		k.InstantAt(d.Sched.Now(), "firewall", fmt.Sprintf("redirect suspected at %s: %s then %s within %v",
			a.Recipient, a.FirstSender, a.SecondSender, a.Gap))
	})
	return stop, nil
}

// StartForeground registers a foreground service for pkg, pinning a
// notification in the notification center. Foreground services survive
// KILL_BACKGROUND_PROCESSES — how DAPP protects itself (Section V-B).
func (d *Device) StartForeground(pkg string) {
	if d.foregroundSvc == nil {
		d.foregroundSvc = make(map[string]bool)
	}
	d.foregroundSvc[pkg] = true
}

// HasForegroundService reports whether pkg pinned a foreground service.
func (d *Device) HasForegroundService(pkg string) bool { return d.foregroundSvc[pkg] }

// KillBackground is the killBackgroundProcesses API: the caller must hold
// KILL_BACKGROUND_PROCESSES, and apps with a foreground service are immune.
// It reports whether the target process died.
func (d *Device) KillBackground(caller vfs.UID, pkg string) (bool, error) {
	if !d.PMS.UIDHolds(caller, perm.KillBackgroundProcesses) {
		return false, fmt.Errorf("device: kill %s by uid %d: %w", pkg, caller, pm.ErrPermissionDenied)
	}
	if d.foregroundSvc[pkg] {
		return false, nil
	}
	d.Procs.Unregister(pkg)
	return true, nil
}
