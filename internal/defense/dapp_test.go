package defense

import (
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/sig"
)

type fixture struct {
	dev    *device.Device
	store  *installer.App
	mal    *attack.Malware
	target *apk.APK
	dapp   *DAPP
}

func newFixture(t *testing.T, prof installer.Profile, seed int64) *fixture {
	t.Helper()
	dev, err := device.Boot(device.Profile{Name: "nexus5", Vendor: "lge", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	store, err := installer.Deploy(dev, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := apk.Build(apk.Manifest{
		Package: "com.popular.app", VersionCode: 1, Label: "Popular", Icon: "i",
		UsesPerms: []string{perm.Internet},
	}, map[string][]byte{"classes.dex": []byte("genuine")}, sig.NewKey("dev"))
	store.Store.Publish(target)
	mal, err := attack.DeployMalware(dev, "com.fun.game")
	if err != nil {
		t.Fatal(err)
	}
	dapp, err := Deploy(dev, []string{prof.StagingDir})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{dev: dev, store: store, mal: mal, target: target, dapp: dapp}
}

func (f *fixture) runAIT(t *testing.T) installer.Result {
	t.Helper()
	var res installer.Result
	got := false
	f.store.RequestInstall("com.popular.app", func(r installer.Result) { res, got = r, true })
	f.dev.Sched.RunUntil(f.dev.Sched.Now() + 2*time.Minute)
	if !got {
		t.Fatal("AIT never completed")
	}
	return res
}

func TestDAPPDetectsFileObserverHijack(t *testing.T) {
	prof := installer.Amazon()
	f := newFixture(t, prof, 101)
	atk := attack.NewTOCTOU(f.mal, attack.ConfigForStore(prof, attack.StrategyFileObserver), f.target)
	if err := atk.Launch(); err != nil {
		t.Fatal(err)
	}
	defer atk.Stop()

	res := f.runAIT(t)
	if !res.Hijacked {
		t.Fatal("attack did not land; nothing to detect")
	}
	if !f.dapp.Thwarted("com.popular.app") {
		t.Fatalf("DAPP missed the hijack; alerts = %v", f.dapp.Alerts())
	}
	// Both heuristics fire: the replacement move and the final signature
	// mismatch.
	kinds := map[AlertKind]bool{}
	for _, a := range f.dapp.Alerts() {
		kinds[a.Kind] = true
		if a.Kind.String() == "" || a.Detail == "" {
			t.Errorf("malformed alert %+v", a)
		}
	}
	if !kinds[RaceSuspected] || !kinds[SignatureMismatch] {
		t.Errorf("alert kinds = %v, want both heuristics", kinds)
	}
}

func TestDAPPDetectsWaitAndSeeHijack(t *testing.T) {
	prof := installer.DTIgnite()
	f := newFixture(t, prof, 103)
	atk := attack.NewTOCTOU(f.mal, attack.ConfigForStore(prof, attack.StrategyWaitAndSee), f.target)
	if err := atk.Launch(); err != nil {
		t.Fatal(err)
	}
	defer atk.Stop()

	res := f.runAIT(t)
	if !res.Hijacked {
		t.Fatal("attack did not land")
	}
	if !f.dapp.Thwarted("com.popular.app") {
		t.Fatalf("DAPP missed the hijack; alerts = %v", f.dapp.Alerts())
	}
}

func TestDAPPProtectsUncheckedInstallers(t *testing.T) {
	// The ordinary-developer installer performs no hash check at all;
	// DAPP is its only protection. It side-loads a fresh companion app
	// (an update of an *installed* app would additionally be stopped by
	// the PMS signature-continuity check).
	prof := installer.OrdinaryDeveloper("com.indie.launcher")
	dev, err := device.Boot(device.Profile{Name: "nexus5", Vendor: "lge", Seed: 107})
	if err != nil {
		t.Fatal(err)
	}
	store, err := installer.Deploy(dev, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	update := apk.Build(apk.Manifest{Package: "com.indie.game", VersionCode: 1, Label: "Indie Game"},
		map[string][]byte{"classes.dex": []byte("v1")}, sig.NewKey("indie-dev"))
	store.Store.Publish(update)
	mal, err := attack.DeployMalware(dev, "com.fun.game")
	if err != nil {
		t.Fatal(err)
	}
	dapp, err := Deploy(dev, []string{prof.StagingDir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := attack.ConfigForStore(prof, attack.StrategyWaitAndSee)
	cfg.WaitDelay = 100 * time.Millisecond // no check to wait out
	atk := attack.NewTOCTOU(mal, cfg, update)
	if err := atk.Launch(); err != nil {
		t.Fatal(err)
	}
	defer atk.Stop()

	var res installer.Result
	store.RequestInstall("com.indie.game", func(r installer.Result) { res = r })
	dev.Sched.RunUntil(2 * time.Minute)
	if !res.Hijacked {
		t.Fatal("attack did not land on the unchecked installer")
	}
	if !dapp.Thwarted("com.indie.game") {
		t.Fatalf("DAPP missed it; alerts = %v", dapp.Alerts())
	}
}

func TestDAPPNoFalsePositivesOnCleanInstalls(t *testing.T) {
	for _, prof := range installer.AllStoreProfiles() {
		prof := prof
		t.Run(prof.Package, func(t *testing.T) {
			f := newFixture(t, prof, 109)
			res := f.runAIT(t)
			if !res.Clean() {
				t.Fatalf("clean install failed: %v", res.Err)
			}
			if alerts := f.dapp.Alerts(); len(alerts) != 0 {
				t.Errorf("false positives: %v", alerts)
			}
		})
	}
}

func TestDAPPSurvivesKillBackgroundProcesses(t *testing.T) {
	f := newFixture(t, installer.Amazon(), 113)
	// A killer app holding KILL_BACKGROUND_PROCESSES.
	killer, err := f.dev.PMS.InstallFromParsed(apk.Build(apk.Manifest{
		Package: "com.killer", VersionCode: 1, Label: "K",
		UsesPerms: []string{perm.KillBackgroundProcesses},
	}, nil, sig.NewKey("killer")))
	if err != nil {
		t.Fatal(err)
	}
	died, err := f.dev.KillBackground(killer.UID, DAPPPackage)
	if err != nil {
		t.Fatal(err)
	}
	if died {
		t.Fatal("DAPP was killed despite its foreground service")
	}
	// An ordinary background app does die.
	died, err = f.dev.KillBackground(killer.UID, "com.fun.game")
	if err != nil || !died {
		t.Errorf("background kill = %v, %v", died, err)
	}
	// And without the permission the call fails outright.
	if _, err := f.dev.KillBackground(f.mal.UID(), DAPPPackage); err == nil {
		t.Error("kill without permission succeeded")
	}
}

func TestDAPPAlertCallbackAndReset(t *testing.T) {
	prof := installer.Baidu()
	f := newFixture(t, prof, 127)
	notified := 0
	f.dapp.OnAlert(func(Alert) { notified++ })
	atk := attack.NewTOCTOU(f.mal, attack.ConfigForStore(prof, attack.StrategyFileObserver), f.target)
	if err := atk.Launch(); err != nil {
		t.Fatal(err)
	}
	defer atk.Stop()
	res := f.runAIT(t)
	if !res.Hijacked {
		t.Fatal("attack did not land")
	}
	if notified == 0 {
		t.Error("OnAlert callback never fired")
	}
	f.dapp.ResetAlerts()
	if len(f.dapp.Alerts()) != 0 {
		t.Error("alerts survive reset")
	}
	f.dapp.Stop()
}

// TestLatestRecordTieBreaksByPath stages two copies of one package at the
// same virtual instant under different signers, next to an older copy at
// a smaller path. The signer DAPP compares against must be the same on
// every call — the later instant first, then the smallest path — whatever
// order the record map yields.
func TestLatestRecordTieBreaksByPath(t *testing.T) {
	const pkg = "com.popular.app"
	d := &DAPP{recs: map[string]*record{
		"/sdcard/0/app.apk": {pkg: pkg, cert: sig.NewKey("old").Certificate(), downloadedAt: time.Second},
		"/sdcard/b/app.apk": {pkg: pkg, cert: sig.NewKey("b").Certificate(), downloadedAt: 2 * time.Second},
		"/sdcard/a/app.apk": {pkg: pkg, cert: sig.NewKey("a").Certificate(), downloadedAt: 2 * time.Second},
		"/sdcard/c/app.apk": {pkg: "com.other.app", downloadedAt: 3 * time.Second},
	}}
	want := d.recs["/sdcard/a/app.apk"]
	for i := 0; i < 64; i++ {
		if got := d.latestRecordFor(pkg); got != want {
			t.Fatalf("call %d: latestRecordFor picked signer %s, want %s (the same-instant record at the smallest path)",
				i, got.cert.Fingerprint.Short(), want.cert.Fingerprint.Short())
		}
	}
}
