package installer

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/fileobserver"
	"github.com/ghost-installer/gia/internal/intents"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/vfs"
)

func bootDev(t *testing.T) *device.Device {
	t.Helper()
	d, err := device.Boot(device.Profile{Name: "galaxy-s6", Vendor: "samsung", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// deployWithTarget deploys prof and publishes a target app on its store.
func deployWithTarget(t *testing.T, d *device.Device, prof Profile, target string) (*App, *apk.APK) {
	t.Helper()
	app, err := Deploy(d, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	targetAPK := apk.Build(apk.Manifest{
		Package: target, VersionCode: 1, Label: "Target", Icon: "icon",
		UsesPerms: []string{perm.Internet},
	}, map[string][]byte{"classes.dex": []byte("genuine-" + target)}, sig.NewKey(target+"-dev"))
	app.Store.Publish(targetAPK)
	return app, targetAPK
}

func runAIT(t *testing.T, d *device.Device, app *App, target string) Result {
	t.Helper()
	var res Result
	got := false
	app.RequestInstall(target, func(r Result) { res, got = r, true })
	d.Run()
	if !got {
		t.Fatal("AIT never completed")
	}
	return res
}

func TestCleanInstallAcrossAllProfiles(t *testing.T) {
	for _, prof := range AllStoreProfiles() {
		prof := prof
		t.Run(prof.Package, func(t *testing.T) {
			d := bootDev(t)
			app, targetAPK := deployWithTarget(t, d, prof, "com.example.app")
			res := runAIT(t, d, app, "com.example.app")
			if !res.Clean() {
				t.Fatalf("result = err %v, hijacked %v", res.Err, res.Hijacked)
			}
			if res.Installed.Name() != "com.example.app" {
				t.Errorf("installed %s", res.Installed.Name())
			}
			if !res.Installed.Cert.Equal(targetAPK.Cert()) {
				t.Error("installed cert differs from developer cert")
			}
			if res.Attempts != 1 {
				t.Errorf("attempts = %d", res.Attempts)
			}
			// The trace covers all four AIT steps (Figure 1).
			seen := map[int]bool{}
			for _, s := range res.Trace {
				seen[s.Step] = true
				if s.String() == "" {
					t.Error("empty trace line")
				}
			}
			for step := StepInvocation; step <= StepInstall; step++ {
				if !seen[step] {
					t.Errorf("trace missing step %d: %v", step, res.Trace)
				}
			}
		})
	}
}

func TestVerifyReadsFingerprint(t *testing.T) {
	// Count CLOSE_NOWRITE events on the staged file between download
	// completion and install: the per-store fingerprints of Section III-B.
	tests := []struct {
		prof Profile
		want int
	}{
		{prof: Amazon(), want: 7},
		{prof: Qihoo360(), want: 3},
		{prof: Baidu(), want: 2},
		{prof: Xiaomi(), want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.prof.Package, func(t *testing.T) {
			d := bootDev(t)
			app, _ := deployWithTarget(t, d, tt.prof, "com.example.app")

			downloaded := false
			noWrites := 0
			obs := fileobserver.New(d.FS, tt.prof.StagingDir, fileobserver.AllEvents, func(ev fileobserver.Event) {
				switch ev.Mask {
				case fileobserver.CloseWrite:
					downloaded, noWrites = true, 0
				case fileobserver.CloseNoWrite:
					if downloaded && ev.Actor == app.UID() {
						noWrites++
					}
				}
			})
			if err := obs.StartWatching(); err != nil {
				t.Fatal(err)
			}
			defer obs.StopWatching()

			res := runAIT(t, d, app, "com.example.app")
			if !res.Clean() {
				t.Fatalf("install failed: %v", res.Err)
			}
			if noWrites != tt.want {
				t.Errorf("verification CLOSE_NOWRITE count = %d, want %d", noWrites, tt.want)
			}
		})
	}
}

func TestAmazonRandomizesNames(t *testing.T) {
	d := bootDev(t)
	app, _ := deployWithTarget(t, d, Amazon(), "com.example.app")
	res := runAIT(t, d, app, "com.example.app")
	if !res.Clean() {
		t.Fatal(res.Err)
	}
	infos, err := d.FS.List(Amazon().StagingDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("staging dir = %+v", infos)
	}
	if strings.Contains(infos[0].Name, "com.example.app") {
		t.Errorf("staged name %q not randomized", infos[0].Name)
	}
}

func TestXiaomiTempRenameSignalsCompletion(t *testing.T) {
	d := bootDev(t)
	app, _ := deployWithTarget(t, d, Xiaomi(), "com.example.app")
	var moves []string
	obs := fileobserver.New(d.FS, Xiaomi().StagingDir, fileobserver.MovedTo, func(ev fileobserver.Event) {
		moves = append(moves, ev.Name)
	})
	if err := obs.StartWatching(); err != nil {
		t.Fatal(err)
	}
	defer obs.StopWatching()
	res := runAIT(t, d, app, "com.example.app")
	if !res.Clean() {
		t.Fatal(res.Err)
	}
	if len(moves) != 1 || moves[0] != "com.example.app.apk" {
		t.Errorf("MOVED_TO events = %v — the rename is the attacker's completion signal", moves)
	}
}

func TestDTIgniteDownloadsThroughDM(t *testing.T) {
	d := bootDev(t)
	app, _ := deployWithTarget(t, d, DTIgnite(), "com.carrier.bloat")
	res := runAIT(t, d, app, "com.carrier.bloat")
	if !res.Clean() {
		t.Fatal(res.Err)
	}
	// The DM recorded the download under DTIgnite's identity.
	q, err := d.DM.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Package != "com.dti.ignite" || !strings.HasPrefix(q.Dest, "/sdcard/DTIgnite/") {
		t.Errorf("dm record = %+v", q)
	}
}

func TestGooglePlayStagesInternallyWorldReadable(t *testing.T) {
	d := bootDev(t)
	prof := GooglePlay()
	app, _ := deployWithTarget(t, d, prof, "com.example.app")

	var stagedMode vfs.Mode
	obs := fileobserver.New(d.FS, prof.StagingDir, fileobserver.CloseWrite, func(ev fileobserver.Event) {
		if info, err := d.FS.Stat(ev.Path); err == nil {
			stagedMode = info.Mode
		}
	})
	if err := obs.StartWatching(); err != nil {
		t.Fatal(err)
	}
	defer obs.StopWatching()

	res := runAIT(t, d, app, "com.example.app")
	if !res.Clean() {
		t.Fatal(res.Err)
	}
	if !stagedMode.WorldReadable() {
		t.Errorf("internal staged mode = %o, want world-readable", stagedMode)
	}
	// And crucially: another app cannot overwrite the internal staging
	// file, unlike the SD card.
	evil := vfs.UID(10999)
	err := d.FS.WriteFile(prof.StagingDir+"/x.apk", []byte("evil"), evil, vfs.ModeShared)
	if !errors.Is(err, vfs.ErrPermission) {
		t.Errorf("foreign write into Play staging dir = %v, want ErrPermission", err)
	}
}

func TestNotInCatalog(t *testing.T) {
	d := bootDev(t)
	app, err := Deploy(d, Amazon(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	app.RequestInstall("com.missing", func(r Result) { res = r })
	d.Run()
	if !errors.Is(res.Err, ErrNotInCatalog) {
		t.Errorf("err = %v", res.Err)
	}
}

func TestCorruptedDownloadTriggersRedownload(t *testing.T) {
	d := bootDev(t)
	prof := Baidu()
	app, _ := deployWithTarget(t, d, prof, "com.example.app")

	// The corrupting app must actually hold WRITE_EXTERNAL_STORAGE or the
	// FUSE daemon rejects the write.
	evil, err := d.InstallSystemApp(apk.Build(apk.Manifest{
		Package: "com.clumsy", VersionCode: 1, Label: "Clumsy",
		UsesPerms: []string{perm.WriteExternalStorage},
	}, nil, sig.NewKey("clumsy")))
	if err != nil {
		t.Fatal(err)
	}

	// A clumsy attacker corrupts the file immediately at CLOSE_WRITE —
	// before verification — so the hash check fails and the store
	// transparently re-downloads. Only the first attempt is attacked.
	attacked := false
	obs := fileobserver.New(d.FS, prof.StagingDir, fileobserver.CloseWrite, func(ev fileobserver.Event) {
		if !attacked && ev.Actor == app.UID() {
			attacked = true
			if werr := d.FS.WriteFile(ev.Path, []byte("garbage"), evil.UID, vfs.ModeShared); werr != nil {
				t.Errorf("corrupting write failed: %v", werr)
			}
		}
	})
	if err := obs.StartWatching(); err != nil {
		t.Fatal(err)
	}
	defer obs.StopWatching()

	res := runAIT(t, d, app, "com.example.app")
	if !res.Clean() {
		t.Fatalf("res = %+v", res.Err)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (transparent redownload)", res.Attempts)
	}
}

func TestVeneziaJSBridgeCommandInjection(t *testing.T) {
	d := bootDev(t)
	app, _ := deployWithTarget(t, d, Amazon(), "com.victim.app")

	// A background app sends a singleTop Intent carrying script to the
	// exported Venezia activity; the bridge executes it with Amazon's
	// INSTALL_PACKAGES privilege.
	err := d.AMS.StartActivity("com.malware", intents.Intent{
		TargetPkg: "com.amazon.venezia", Component: ActivityVenezia,
		SingleTop: true,
		Extras:    map[string]string{"jsPayload": "install:com.victim.app"},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	if _, ok := d.PMS.Installed("com.victim.app"); !ok {
		t.Fatal("silent install via JS bridge did not happen")
	}
	logs := app.PushInstalls()
	if len(logs) != 1 || !logs[0].Succeeded() {
		t.Errorf("push log = %+v", logs)
	}

	// And uninstall works the same way.
	err = d.AMS.StartActivity("com.malware", intents.Intent{
		TargetPkg: "com.amazon.venezia", Component: ActivityVenezia,
		SingleTop: true,
		Extras:    map[string]string{"jsPayload": "uninstall:com.victim.app"},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	if _, ok := d.PMS.Installed("com.victim.app"); ok {
		t.Error("silent uninstall via JS bridge did not happen")
	}
}

func TestVeneziaSanitizedBridgeIgnoresPayload(t *testing.T) {
	d := bootDev(t)
	prof := Amazon()
	prof.JSBridgeSanitized = true
	_, _ = deployWithTarget(t, d, prof, "com.victim.app")

	err := d.AMS.StartActivity("com.malware", intents.Intent{
		TargetPkg: "com.amazon.venezia", Component: ActivityVenezia,
		SingleTop: true,
		Extras:    map[string]string{"jsPayload": "install:com.victim.app"},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Run()
	if _, ok := d.PMS.Installed("com.victim.app"); ok {
		t.Error("sanitized bridge still executed the payload")
	}
}

func xiaomiPushPayload(t *testing.T, pkg string) string {
	t.Helper()
	inner, err := json.Marshal(map[string]string{"type": "app", "appId": "1234", "packageName": pkg})
	if err != nil {
		t.Fatal(err)
	}
	outer, err := json.Marshal(map[string]string{"jsonContent": string(inner)})
	if err != nil {
		t.Fatal(err)
	}
	return string(outer)
}

func TestXiaomiForgedPushInstallsSilently(t *testing.T) {
	d := bootDev(t)
	_, _ = deployWithTarget(t, d, Xiaomi(), "com.evil.app")

	n, err := d.AMS.SendBroadcast("com.malware", intents.Intent{
		Action: PushAction("com.xiaomi.market"),
		Extras: map[string]string{"payload": xiaomiPushPayload(t, "com.evil.app")},
	})
	if err != nil || n != 1 {
		t.Fatalf("broadcast = %d, %v", n, err)
	}
	d.Run()
	if _, ok := d.PMS.Installed("com.evil.app"); !ok {
		t.Fatal("forged push did not install the app — the Xiaomi flaw must reproduce")
	}
}

func TestGuardedPushReceiverBlocksForgery(t *testing.T) {
	d := bootDev(t)
	prof := Xiaomi()
	prof.PushAuth = ReceiverGuarded
	_, _ = deployWithTarget(t, d, prof, "com.evil.app")

	n, err := d.AMS.SendBroadcast("com.malware", intents.Intent{
		Action: PushAction("com.xiaomi.market"),
		Extras: map[string]string{"payload": xiaomiPushPayload(t, "com.evil.app")},
	})
	if n != 0 || !errors.Is(err, intents.ErrPermission) {
		t.Fatalf("guarded broadcast = %d, %v", n, err)
	}
	d.Run()
	if _, ok := d.PMS.Installed("com.evil.app"); ok {
		t.Error("guarded receiver still installed the forged app")
	}
}

func TestDRMTamperedImageRefusesToRun(t *testing.T) {
	d := bootDev(t)
	prof := Amazon()
	key := sig.NewKey(prof.Package + "-signer")
	attacker := sig.NewKey("attacker")

	// Build the genuine image, then repackage it keeping the DRM entry.
	genuine := apk.WithDRM(apk.Build(apk.Manifest{
		Package: prof.Package, VersionCode: 1, Label: prof.Label,
		UsesPerms: []string{perm.InstallPackages, perm.WriteExternalStorage},
	}, map[string][]byte{"classes.dex": []byte("store")}, key), key)
	tampered := apk.Repackage(genuine, map[string][]byte{"classes.dex": []byte("evil")}, attacker, false)
	if _, err := DeployImage(d, prof, attacker, tampered); !errors.Is(err, ErrDRMTampered) {
		t.Fatalf("tampered deploy = %v, want ErrDRMTampered", err)
	}
	// Stripping the DRM (the paper's bypass) deploys fine.
	stripped := apk.Repackage(genuine, map[string][]byte{"classes.dex": []byte("evil")}, attacker, true)
	if _, err := DeployImage(d, prof, attacker, stripped); err != nil {
		t.Fatalf("DRM-stripped deploy failed: %v", err)
	}
}

// TestDeployInstallsImage pins Image as what Deploy installs when given no
// key: the store under /system/app is the image's encoding byte for byte,
// so a caller that builds the image once and deploys it with DeployImage
// installs the same store on every device.
func TestDeployInstallsImage(t *testing.T) {
	for _, prof := range []Profile{Amazon(), Xiaomi(), GooglePlay()} {
		key, image := Image(prof)
		for _, deploy := range []func(*device.Device) (*App, error){
			func(d *device.Device) (*App, error) { return Deploy(d, prof, nil) },
			func(d *device.Device) (*App, error) { return DeployImage(d, prof, key, image) },
		} {
			d := bootDev(t)
			app, err := deploy(d)
			if err != nil {
				t.Fatal(err)
			}
			installed, err := d.FS.ReadFile(app.Pkg.CodePath, vfs.Root)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(installed, image.Encode()) {
				t.Errorf("%s: the installed store differs from Image's", prof.Package)
			}
			if !app.Key.Certificate().Equal(key.Certificate()) {
				t.Errorf("%s: the store's key is not Image's", prof.Package)
			}
		}
	}
}

func TestOrdinaryDeveloperSelfUpdateViaPIA(t *testing.T) {
	d := bootDev(t)
	prof := OrdinaryDeveloper("com.indie.game")
	app, err := Deploy(d, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The update is a newer version signed by the same developer key.
	app.Store.Publish(apk.Build(apk.Manifest{
		Package: "com.indie.game", VersionCode: 2, Label: prof.Label,
	}, map[string][]byte{"classes.dex": []byte("v2")}, app.Key))
	res := runAIT(t, d, app, "com.indie.game")
	if !res.Clean() {
		t.Fatalf("self-update failed: %v", res.Err)
	}
	// It went through the consent dialog, not a silent install.
	hasConsent := false
	for _, s := range res.Trace {
		if s.Name == "consent" {
			hasConsent = true
		}
	}
	if !hasConsent {
		t.Errorf("trace lacks consent step: %v", res.Trace)
	}
}

func TestInstrumentedAITMatchesTrace(t *testing.T) {
	d := bootDev(t)
	app, _ := deployWithTarget(t, d, Amazon(), "com.example.app")
	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	app.Instrument(reg, tr.VirtualTrack("device"))
	res := runAIT(t, d, app, "com.example.app")
	if !res.Clean() {
		t.Fatalf("result = err %v, hijacked %v", res.Err, res.Hijacked)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("installer.aits"); got != 1 {
		t.Errorf("installer.aits = %d, want 1", got)
	}
	if got := snap.Counter("installer.installed.clean"); got != 1 {
		t.Errorf("installer.installed.clean = %d, want 1", got)
	}
	if got := snap.Counter("installer.installed.hijacked"); got != 0 {
		t.Errorf("installer.installed.hijacked = %d, want 0", got)
	}
	if got := snap.Counter("installer.failed"); got != 0 {
		t.Errorf("installer.failed = %d, want 0", got)
	}

	// The track carries one instant per TraceStep plus one closing span
	// whose extent covers the whole transaction.
	evs := tr.Tracks()[0].Events()
	if want := len(res.Trace) + 1; len(evs) != want {
		t.Fatalf("track has %d events, want %d", len(evs), want)
	}
	for i, st := range res.Trace {
		ev := evs[i]
		if !ev.Instant || ev.Name != st.Name || ev.Detail != st.Detail || ev.Start != st.At {
			t.Errorf("event %d = %+v, want instant mirroring step %+v", i, ev, st)
		}
	}
	sp := evs[len(evs)-1]
	if sp.Instant || sp.Name != "ait/com.example.app" || sp.Detail != "clean" {
		t.Errorf("closing span = %+v", sp)
	}
	last := res.Trace[len(res.Trace)-1]
	if sp.Start != 0 && sp.Start > res.Trace[0].At {
		t.Errorf("span starts at %v, after first step %v", sp.Start, res.Trace[0].At)
	}
	if sp.Start+sp.Dur != last.At {
		t.Errorf("span ends at %v, want %v (last step)", sp.Start+sp.Dur, last.At)
	}
}

func TestInstrumentedAITFailure(t *testing.T) {
	d := bootDev(t)
	app, err := Deploy(d, Amazon(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	app.Instrument(reg, nil)
	res := runAIT(t, d, app, "com.not.in.catalog")
	if res.Err == nil {
		t.Fatal("expected catalog miss")
	}
	snap := reg.Snapshot()
	if got := snap.Counter("installer.aits"); got != 1 {
		t.Errorf("installer.aits = %d, want 1", got)
	}
	if got := snap.Counter("installer.failed"); got != 1 {
		t.Errorf("installer.failed = %d, want 1", got)
	}
}
