package installer

import (
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/dm"
	"github.com/ghost-installer/gia/internal/intents"
	"github.com/ghost-installer/gia/internal/market"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/pm"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/vfs"
)

// Errors returned by AIT runs.
var (
	ErrNotInCatalog = errors.New("installer: package not in store catalog")
	ErrHashMismatch = errors.New("installer: downloaded apk failed hash verification")
	ErrDRMTampered  = errors.New("installer: DRM self-check failed, refusing to run")
)

// Component names registered by store apps.
const (
	ActivityMain       = "Main"
	ActivityAppDetails = "AppDetails"
	// ActivityVenezia is Amazon's WebView activity with the JS-Java
	// bridge (com.amazon.venezia.Venezia in the paper).
	ActivityVenezia = "Venezia"
	// ReceiverPush is the cloud-push broadcast receiver.
	ReceiverPush = "PushReceiver"
)

// PushAction returns the broadcast action a store's push receiver listens
// on.
func PushAction(storePkg string) string { return storePkg + ".action.PUSH" }

// pushGuardPerm is the signature permission guarding a fixed receiver.
func pushGuardPerm(storePkg string) string { return storePkg + ".permission.PUSH" }

// Transfer cadence for stores' self-implemented HTTP downloads.
const (
	selfChunkSize   = 64 << 10
	selfBytesPerSec = 4 << 20
)

// App is a deployed installer app instance on one device.
type App struct {
	Dev     *device.Device
	Prof    Profile
	Pkg     *pm.Package
	Key     *sig.Key
	Store   *market.Server
	uid     vfs.UID
	nextDL  int
	pushLog []Result
	met     appMetrics
}

// appMetrics are the app's AIT observability hooks; the zero value (all
// nil) disables them at zero cost. See Instrument.
type appMetrics struct {
	aits     *obs.Counter
	clean    *obs.Counter
	hijacked *obs.Counter
	failed   *obs.Counter
	track    *obs.Track
}

func (m *appMetrics) active() bool { return m.aits != nil || m.track != nil }

// record closes out one AIT on the hooks: an outcome counter plus, when a
// track is attached, one virtual-time span covering the whole transaction.
func (m *appMetrics) record(app *App, start time.Duration, r Result) {
	outcome := "failed"
	switch {
	case r.Clean():
		outcome = "clean"
		m.clean.Add(1)
	case r.Succeeded():
		outcome = "hijacked"
		m.hijacked.Add(1)
	default:
		m.failed.Add(1)
	}
	if m.track != nil {
		m.track.SpanAt(start, app.Dev.Sched.Now()-start,
			"ait/"+r.Requested, outcome)
	}
}

// Instrument hooks the app's AIT telemetry onto reg (counters
// "installer.aits", "installer.installed.clean",
// "installer.installed.hijacked", "installer.failed") and, when track is
// non-nil, emits the AIT trace onto it in virtual time: one instant per
// TraceStep and one span per transaction. Either argument may be nil;
// calling Instrument with both nil restores the uninstrumented state.
func (a *App) Instrument(reg *obs.Registry, track *obs.Track) {
	a.met = appMetrics{track: track}
	if reg != nil {
		a.met.aits = reg.Counter("installer.aits")
		a.met.clean = reg.Counter("installer.installed.clean")
		a.met.hijacked = reg.Counter("installer.installed.hijacked")
		a.met.failed = reg.Counter("installer.failed")
	}
}

// imageCache memoizes default-key installer images: an image is a pure
// function of the profile and its derived signing key, and the sweeps and
// fleet studies deploy the same handful of stores onto thousands of
// devices. Cached images are shared and must stay immutable.
var imageCache struct { //gia:global — knockout: +70% per explore-sweep schedule, +9% per explore-orders one
	sync.Mutex
	m map[Profile]*apk.APK
}

// Deploy builds the installer's APK from its profile, installs it as part
// of the system image, registers its components with the AMS and connects
// (or creates) its store server.
func Deploy(dev *device.Device, prof Profile, key *sig.Key) (*App, error) {
	if key == nil {
		key = sig.NewKey(prof.Package + "-signer")
		imageCache.Lock()
		image := imageCache.m[prof]
		imageCache.Unlock()
		if image == nil {
			image = buildImage(prof, key)
			imageCache.Lock()
			if imageCache.m == nil {
				imageCache.m = make(map[Profile]*apk.APK)
			}
			imageCache.m[prof] = image
			imageCache.Unlock()
		}
		return DeployImage(dev, prof, key, image)
	}
	return DeployImage(dev, prof, key, buildImage(prof, key))
}

// buildImage assembles the store's system-image APK for prof, signed by key.
func buildImage(prof Profile, key *sig.Key) *apk.APK {
	uses := []string{perm.Internet, perm.WriteExternalStorage, perm.ReadExternalStorage}
	if prof.Silent {
		uses = append(uses, perm.InstallPackages, perm.DeletePackages)
	}
	m := apk.Manifest{
		Package:     prof.Package,
		VersionCode: 1,
		Label:       prof.Label,
		Icon:        "icon-" + prof.Package,
		UsesPerms:   uses,
		Components: []apk.Component{
			{Type: apk.ComponentActivity, Name: ActivityMain, Exported: true},
			{Type: apk.ComponentActivity, Name: ActivityAppDetails, Exported: true},
		},
	}
	if prof.JSBridge {
		m.Components = append(m.Components, apk.Component{
			Type: apk.ComponentActivity, Name: ActivityVenezia, Exported: true,
		})
	}
	switch prof.PushAuth {
	case ReceiverUnauthenticated:
		m.Components = append(m.Components, apk.Component{
			Type: apk.ComponentReceiver, Name: ReceiverPush, Exported: true,
		})
	case ReceiverGuarded:
		m.DefinesPerms = append(m.DefinesPerms, apk.PermissionDef{
			Name: pushGuardPerm(prof.Package), ProtectionLevel: "signature",
		})
		m.Components = append(m.Components, apk.Component{
			Type: apk.ComponentReceiver, Name: ReceiverPush, Exported: true,
			GuardedBy: pushGuardPerm(prof.Package),
		})
	}
	image := apk.Build(m, map[string][]byte{"classes.dex": []byte("store-code-" + prof.Package)}, key)
	if prof.DRMSelfCheck {
		image = apk.WithDRM(image, key)
	}
	return image
}

// DeployImage deploys a pre-built installer image (used to model the
// repackaged-Amazon attack, where the image is attacker-modified). The
// image's DRM self-check, if present, runs at startup.
func DeployImage(dev *device.Device, prof Profile, key *sig.Key, image *apk.APK) (*App, error) {
	if !image.DRMSelfCheck() {
		return nil, fmt.Errorf("%s: %w", prof.Package, ErrDRMTampered)
	}
	pkg, err := dev.InstallSystemApp(image)
	if err != nil {
		return nil, fmt.Errorf("installer: deploy %s: %w", prof.Package, err)
	}
	store := dev.Market.Acquire(prof.StoreHost)
	app := &App{Dev: dev, Prof: prof, Pkg: pkg, Key: key, Store: store, uid: pkg.UID}
	app.registerComponents()
	return app, nil
}

func (a *App) registerComponents() {
	ams := a.Dev.AMS
	ams.RegisterActivity(a.Prof.Package, ActivityMain, true, "", func(in intents.Intent) string {
		return a.Prof.Label + ":home"
	})
	// AppDetails renders whatever app the incoming Intent asks for — the
	// surface the redirect-Intent attack repaints.
	ams.RegisterActivity(a.Prof.Package, ActivityAppDetails, true, "", func(in intents.Intent) string {
		return a.Prof.Label + ":details:" + in.Extra("appId")
	})
	if a.Prof.JSBridge {
		ams.RegisterActivity(a.Prof.Package, ActivityVenezia, true, "", a.handleVenezia)
	}
	if a.Prof.PushAuth != ReceiverNone {
		guard := ""
		if a.Prof.PushAuth == ReceiverGuarded {
			guard = pushGuardPerm(a.Prof.Package)
		}
		ams.RegisterReceiver(a.Prof.Package, ReceiverPush, PushAction(a.Prof.Package), true, guard, a.handlePush)
	}
}

// handleVenezia is the JS-Java bridge: the activity renders cloud content
// and executes the JavaScript it carries. The vulnerable version never
// authenticates the Intent's origin nor filters script payloads, so
// "install:<pkg>" / "uninstall:<pkg>" commands run with the store's
// INSTALL_PACKAGES privilege.
func (a *App) handleVenezia(in intents.Intent) string {
	payload := in.Extra("jsPayload")
	if payload == "" {
		return a.Prof.Label + ":webview"
	}
	if a.Prof.JSBridgeSanitized {
		// The fix: script content from Intents is dropped and the bridge
		// no longer exposes install/uninstall.
		return a.Prof.Label + ":webview:sanitized"
	}
	for _, cmd := range strings.Split(payload, ";") {
		verb, arg, ok := strings.Cut(strings.TrimSpace(cmd), ":")
		if !ok {
			continue
		}
		switch verb {
		case "install":
			a.RequestInstall(arg, func(r Result) { a.pushLog = append(a.pushLog, r) })
		case "uninstall":
			_ = a.Dev.PMS.Uninstall(a.uid, arg)
		}
	}
	return a.Prof.Label + ":webview:executed"
}

// handlePush processes cloud push messages. The vulnerable variant parses
// the forged payload of Section III-D² and silently installs the named app.
func (a *App) handlePush(in intents.Intent) {
	var msg struct {
		JSONContent string `json:"jsonContent"`
	}
	raw := in.Extra("payload")
	if raw == "" {
		return
	}
	if err := json.Unmarshal([]byte(raw), &msg); err != nil {
		return
	}
	var cmd struct {
		Type        string `json:"type"`
		AppID       string `json:"appId"`
		PackageName string `json:"packageName"`
	}
	if err := json.Unmarshal([]byte(msg.JSONContent), &cmd); err != nil {
		return
	}
	if cmd.Type != "app" || cmd.PackageName == "" {
		return
	}
	a.RequestInstall(cmd.PackageName, func(r Result) { a.pushLog = append(a.pushLog, r) })
}

// PushInstalls returns the results of installs triggered through the push
// receiver or the JS bridge.
func (a *App) PushInstalls() []Result { return append([]Result(nil), a.pushLog...) }

// UID returns the installer's UID.
func (a *App) UID() vfs.UID { return a.uid }

// stagingName picks the staged file name for a target package.
func (a *App) stagingName(target string) string {
	if a.Prof.RandomizeNames {
		var buf [12]byte
		const hexdigits = "0123456789abcdef"
		v := a.Dev.Sched.Uint32()
		for i := 7; i >= 0; i-- {
			buf[i] = hexdigits[v&0xf]
			v >>= 4
		}
		copy(buf[8:], ".apk")
		return string(buf[:])
	}
	return target + ".apk"
}

// selfDownload models the store's own HTTP download: chunked writes on the
// virtual clock, same observable event stream as the DM. The hosted bytes
// are immutable, so each chunk is written with WriteShared and the staged
// file stays a view of them until something else writes to it.
func (a *App) selfDownload(url, dest string, mode vfs.Mode, done func(error)) {
	data, err := a.Dev.Market.Fetch(url)
	if err != nil {
		done(fmt.Errorf("installer: fetch %s: %w", url, err))
		return
	}
	h, err := a.Dev.FS.Open(dest, a.uid, vfs.FlagWrite|vfs.FlagCreate|vfs.FlagTrunc, mode)
	if err != nil {
		done(fmt.Errorf("installer: open staging file: %w", err))
		return
	}
	var writeNext func(rest []byte)
	writeNext = func(rest []byte) {
		if len(rest) == 0 {
			done(h.Close())
			return
		}
		n := selfChunkSize
		if len(rest) < n {
			n = len(rest)
		}
		chunkTime := time.Duration(float64(n) / float64(selfBytesPerSec) * float64(time.Second))
		a.Dev.Sched.AfterFn(chunkTime, func() {
			if _, err := h.WriteShared(rest[:n]); err != nil {
				_ = h.Close()
				done(fmt.Errorf("installer: write chunk: %w", err))
				return
			}
			writeNext(rest[n:])
		})
	}
	writeNext(data)
}

// internalFilesDir / internalCacheDir are the installer's private dirs.
func (a *App) internalFilesDir() string { return "/data/data/" + a.Prof.Package + "/files" }
func (a *App) internalCacheDir() string { return "/data/data/" + a.Prof.Package + "/cache" }

// chooseStaging applies Suggestion 1: stage internally when the profile
// prefers it and the internal mount has room for the APK twice (staging
// copy plus the PMS code image); otherwise use the profile's SD-card dir.
func (a *App) chooseStaging(listing market.Listing) (dir string, internal bool) {
	if a.Prof.Storage == StorageInternal {
		return a.Prof.StagingDir, true
	}
	if !a.Prof.PreferInternal {
		return a.Prof.StagingDir, false
	}
	used, capacity, err := a.Dev.FS.MountUsage("/data")
	if err == nil && (capacity == 0 || capacity-used >= 2*listing.SizeBytes) {
		if a.Prof.UseDM {
			// The Download Manager only accepts the caller's cache dir
			// as an internal destination.
			return a.internalCacheDir(), true
		}
		return a.internalFilesDir(), true
	}
	return a.Prof.StagingDir, false
}

// download stages the listing's APK and calls done with the final path.
func (a *App) download(listing market.Listing, done func(path string, err error)) {
	stagingDir, internal := a.chooseStaging(listing)
	if err := a.Dev.FS.MkdirAll(stagingDir, a.uid, vfs.ModeDir); err != nil && !errors.Is(err, vfs.ErrExist) {
		done("", fmt.Errorf("installer: staging dir: %w", err))
		return
	}
	// Internal staging must be world-readable or the PMS cannot open it
	// (Section II) — the very marker the measurement classifier detects.
	mode := vfs.ModeShared
	if internal {
		mode = vfs.ModeWorldReadable
	}
	finalPath := stagingDir + "/" + a.stagingName(listing.Package)
	dlPath := finalPath
	if a.Prof.TempNameRename {
		a.nextDL++
		dlPath = stagingDir + "/.tmp-" + strconv.Itoa(a.nextDL) + ".part"
	}
	finish := func(err error) {
		if err != nil {
			done("", err)
			return
		}
		if a.Prof.TempNameRename {
			if err := a.Dev.FS.Rename(dlPath, finalPath, a.uid); err != nil {
				done("", fmt.Errorf("installer: rename temp download: %w", err))
				return
			}
		}
		done(finalPath, nil)
	}
	if a.Prof.UseDM {
		_, err := a.Dev.DM.Enqueue(a.uid, a.Prof.Package, listing.URL, dlPath, func(d *dm.Download) {
			if d.Status != dm.StatusSuccessful {
				finish(fmt.Errorf("installer: dm download: %w", d.Err))
				return
			}
			if internal {
				// The DM presents shared modes; the PMS needs the
				// staged copy world-readable.
				if err := a.Dev.FS.Chmod(dlPath, vfs.ModeWorldReadable, a.uid); err != nil {
					finish(fmt.Errorf("installer: chmod staged: %w", err))
					return
				}
			}
			finish(nil)
		})
		if err != nil {
			done("", fmt.Errorf("installer: dm enqueue: %w", err))
		}
		return
	}
	a.selfDownload(listing.URL, dlPath, mode, finish)
}

// secureCopy implements Suggestion 2: duplicate a shared-storage download
// into the installer's private internal directory, so verification and
// installation operate on a copy no other app can touch.
func (a *App) secureCopy(stagedPath string) (string, error) {
	data, err := a.Dev.FS.ReadFile(stagedPath, a.uid)
	if err != nil {
		return "", fmt.Errorf("installer: secure copy read: %w", err)
	}
	// The copy and the PMS code image will coexist, so the move off
	// shared storage needs room for the APK twice — the same economics
	// that drive stores to the SD card in the first place.
	used, capacity, err := a.Dev.FS.MountUsage("/data")
	if err == nil && capacity > 0 && capacity-used < 2*int64(len(data)) {
		return "", fmt.Errorf("installer: secure copy needs %d bytes, %d free: %w",
			2*len(data), capacity-used, vfs.ErrNoSpace)
	}
	if err := a.Dev.FS.MkdirAll(a.internalFilesDir(), a.uid, vfs.ModeDir); err != nil && !errors.Is(err, vfs.ErrExist) {
		return "", fmt.Errorf("installer: secure copy dir: %w", err)
	}
	dest := a.internalFilesDir() + "/secure-" + path.Base(stagedPath)
	if err := a.Dev.FS.WriteFileShared(dest, data, a.uid, vfs.ModeWorldReadable); err != nil {
		return "", fmt.Errorf("installer: secure copy write: %w", err)
	}
	return dest, nil
}
