// Package defense implements the paper's protections against Ghost
// Installer Attacks. The system-level defenses live with the subsystems
// they patch (the FUSE daemon's DAC scheme in internal/fuse, the
// IntentFirewall detection and origin schemes in internal/intents); this
// package provides *DAPP*, the user-level protection app of Section V-B,
// plus helpers to switch whole defense configurations on and off.
package defense

import (
	"fmt"
	"strings"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/fileobserver"
	"github.com/ghost-installer/gia/internal/intents"
	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/pm"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/vfs"
)

// AlertKind classifies a DAPP detection.
type AlertKind int

// Detection kinds.
const (
	// SignatureMismatch: the package installed by the PMS does not carry
	// the signature grabbed when its APK finished downloading.
	SignatureMismatch AlertKind = iota + 1
	// RaceSuspected: a write, move or delete touched a staged APK
	// shortly after its download completed and before installation.
	RaceSuspected
)

func (k AlertKind) String() string {
	switch k {
	case SignatureMismatch:
		return "signature-mismatch"
	case RaceSuspected:
		return "race-suspected"
	default:
		return fmt.Sprintf("alert(%d)", int(k))
	}
}

// Alert is one DAPP detection event.
type Alert struct {
	Kind    AlertKind
	Package string
	Path    string
	At      time.Duration
	Detail  string
}

// DAPPPackage is the defense app's package name.
const DAPPPackage = "org.gia.dapp"

// record is the signature grabbed for one staged APK.
type record struct {
	pkg          string
	cert         sig.Certificate
	downloadedAt time.Duration
	tampered     bool
}

// DAPP is the user-level defense app: an unprivileged app distributed
// through an ordinary store, running a foreground service, watching staged
// APKs with FileObserver and verifying signatures at PACKAGE_ADDED time.
type DAPP struct {
	dev  *device.Device
	pkg  *pm.Package
	obs  []*fileobserver.Observer
	recs map[string]*record // staged path -> signature record

	// SuspicionWindow bounds "shortly after download completion" for the
	// race heuristics.
	SuspicionWindow time.Duration

	alerts  []Alert
	onAlert func(Alert)
}

// Deploy installs DAPP and arms it over the given staging directories
// (typically every store staging dir on the SD card).
func Deploy(dev *device.Device, watchDirs []string) (*DAPP, error) {
	image := apk.Build(apk.Manifest{
		Package: DAPPPackage, VersionCode: 1, Label: "DAPP",
		UsesPerms: []string{perm.ReadExternalStorage, perm.WriteExternalStorage},
	}, map[string][]byte{"classes.dex": []byte("dapp")}, sig.NewKey("gia-project"))
	pkg, err := dev.PMS.InstallFromParsed(image)
	if err != nil {
		return nil, fmt.Errorf("defense: install dapp: %w", err)
	}
	d := &DAPP{
		dev:             dev,
		pkg:             pkg,
		recs:            make(map[string]*record),
		SuspicionWindow: 30 * time.Second,
	}
	// startForeground keeps DAPP alive against
	// KILL_BACKGROUND_PROCESSES-armed malware.
	dev.StartForeground(DAPPPackage)
	dev.AMS.RegisterReceiver(DAPPPackage, "InstallWatcher", pm.ActionPackageAdded, true, "", d.onPackageAdded)
	dev.AMS.RegisterReceiver(DAPPPackage, "ReplaceWatcher", pm.ActionPackageReplaced, true, "", d.onPackageAdded)
	for _, dir := range watchDirs {
		obs := fileobserver.New(dev.FS, dir, fileobserver.AllEvents, d.onFileEvent)
		if err := obs.StartWatching(); err != nil {
			return nil, fmt.Errorf("defense: watch %s: %w", dir, err)
		}
		d.obs = append(d.obs, obs)
	}
	return d, nil
}

// Stop disarms every observer.
func (d *DAPP) Stop() {
	for _, o := range d.obs {
		o.StopWatching()
	}
}

// OnAlert registers a notification callback.
func (d *DAPP) OnAlert(fn func(Alert)) { d.onAlert = fn }

// Alerts returns all detections so far.
func (d *DAPP) Alerts() []Alert { return append([]Alert(nil), d.alerts...) }

// ResetAlerts clears detection history between experiment runs.
func (d *DAPP) ResetAlerts() { d.alerts = nil }

// Thwarted reports whether any alert concerns pkg.
func (d *DAPP) Thwarted(pkg string) bool {
	for _, a := range d.alerts {
		if a.Package == pkg {
			return true
		}
	}
	return false
}

func (d *DAPP) alert(a Alert) {
	a.At = d.dev.Sched.Now()
	d.alerts = append(d.alerts, a)
	if d.onAlert != nil {
		d.onAlert(a)
	}
}

// onFileEvent is the situation-awareness module: grab signatures at
// download completion and flag the race patterns of Section V-B —
// MOVED_TO over a staged APK, DELETE right after the download, or a second
// CLOSE_WRITE shortly after completion.
func (d *DAPP) onFileEvent(ev fileobserver.Event) {
	if ev.Actor == d.pkg.UID {
		return
	}
	if !strings.HasSuffix(ev.Name, ".apk") && !strings.HasSuffix(ev.Name, ".bin") &&
		!strings.HasSuffix(ev.Name, ".part") {
		// Non-package files are out of scope.
		if _, tracked := d.recs[ev.Path]; !tracked {
			return
		}
	}
	now := d.dev.Sched.Now()
	rec := d.recs[ev.Path]
	fresh := rec != nil && now-rec.downloadedAt < d.SuspicionWindow

	switch ev.Mask {
	case fileobserver.CloseWrite, fileobserver.MovedTo:
		if fresh {
			// Any rewrite or move-over shortly after completion is a
			// replacement attempt.
			rec.tampered = true
			d.alert(Alert{
				Kind: RaceSuspected, Package: rec.pkg, Path: ev.Path,
				Detail: fmt.Sprintf("%s on staged apk %v after download", fileobserver.MaskName(ev.Mask), now-rec.downloadedAt),
			})
			return
		}
		d.grabSignature(ev.Path)
	case fileobserver.Delete:
		if fresh {
			rec.tampered = true
			d.alert(Alert{
				Kind: RaceSuspected, Package: rec.pkg, Path: ev.Path,
				Detail: "staged apk deleted right after download",
			})
		}
	}
}

// grabSignature reads the finished APK and records its signer — the moment
// matters: DAPP reads at CLOSE_WRITE, before any attacker waiting for the
// verification pass has struck.
func (d *DAPP) grabSignature(path string) {
	data, err := d.dev.FS.ReadFileShared(path, d.pkg.UID)
	if err != nil {
		return // internal staging or unreadable: out of DAPP's reach
	}
	parsed, err := apk.Decode(data)
	if err != nil {
		return // partial or non-APK content
	}
	d.recs[path] = &record{
		pkg:          parsed.Manifest.Package,
		cert:         parsed.Cert(),
		downloadedAt: d.dev.Sched.Now(),
	}
}

// onPackageAdded compares the installed package's certificate against the
// signature grabbed at download time.
func (d *DAPP) onPackageAdded(in intents.Intent) {
	pkgName := in.Extra("package")
	installed, ok := d.dev.PMS.Installed(pkgName)
	if !ok {
		return
	}
	rec := d.latestRecordFor(pkgName)
	if rec == nil {
		return // not staged under a watched dir
	}
	if !rec.cert.Equal(installed.Cert) {
		d.alert(Alert{
			Kind: SignatureMismatch, Package: pkgName,
			Detail: fmt.Sprintf("downloaded signer %s, installed signer %s",
				rec.cert.Fingerprint.Short(), installed.Cert.Fingerprint.Short()),
		})
	}
}

// latestRecordFor finds the most recent record whose manifest names pkg.
// Records staged at the same virtual instant are ordered by path, the
// smallest first, so the verdict never depends on map iteration order.
func (d *DAPP) latestRecordFor(pkg string) *record {
	var best *record
	var bestPath string
	for path, rec := range d.recs {
		if rec.pkg != pkg {
			continue
		}
		if best == nil || rec.downloadedAt > best.downloadedAt ||
			rec.downloadedAt == best.downloadedAt && path < bestPath {
			best, bestPath = rec, path
		}
	}
	return best
}

// UID returns DAPP's UID.
func (d *DAPP) UID() vfs.UID { return d.pkg.UID }
