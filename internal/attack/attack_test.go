package attack

import (
	"errors"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/dm"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/intents"
	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/vfs"
)

func bootDev(t *testing.T, seed int64) *device.Device {
	t.Helper()
	d, err := device.Boot(device.Profile{Name: "galaxy-s6-edge", Vendor: "samsung", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// scenario deploys a store, publishes a genuine target app on it, and
// plants the malware.
type scenario struct {
	dev    *device.Device
	store  *installer.App
	mal    *Malware
	target *apk.APK
}

func newScenario(t *testing.T, prof installer.Profile, seed int64) *scenario {
	t.Helper()
	d := bootDev(t, seed)
	store, err := installer.Deploy(d, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := apk.Build(apk.Manifest{
		Package: "com.popular.app", VersionCode: 1, Label: "Popular App", Icon: "icon-popular",
		UsesPerms: []string{perm.Internet},
	}, map[string][]byte{"classes.dex": []byte("genuine")}, sig.NewKey("popular-dev"))
	store.Store.Publish(target)
	mal, err := DeployMalware(d, "com.fun.game")
	if err != nil {
		t.Fatal(err)
	}
	return &scenario{dev: d, store: store, mal: mal, target: target}
}

func (s *scenario) runAIT(t *testing.T) installer.Result {
	t.Helper()
	var res installer.Result
	got := false
	s.store.RequestInstall("com.popular.app", func(r installer.Result) { res, got = r, true })
	// RunUntil, not Run: attacker pollers re-arm forever and would keep
	// the queue alive.
	s.dev.Sched.RunUntil(s.dev.Sched.Now() + 2*time.Minute)
	if !got {
		t.Fatal("AIT never completed")
	}
	return res
}

func TestFileObserverHijackAcrossStores(t *testing.T) {
	profiles := []installer.Profile{
		installer.Amazon(), installer.AmazonV2(), installer.Xiaomi(),
		installer.Baidu(), installer.Qihoo360(), installer.DTIgnite(),
		installer.Tencent(), installer.HuaweiStore(),
	}
	for _, prof := range profiles {
		prof := prof
		t.Run(prof.Package, func(t *testing.T) {
			s := newScenario(t, prof, 11)
			atk := NewTOCTOU(s.mal, ConfigForStore(prof, StrategyFileObserver), s.target)
			if err := atk.Launch(); err != nil {
				t.Fatal(err)
			}
			defer atk.Stop()

			res := s.runAIT(t)
			if !res.Succeeded() {
				t.Fatalf("AIT failed outright: %v", res.Err)
			}
			if !res.Hijacked {
				t.Fatal("install was not hijacked")
			}
			if !res.Installed.Cert.Equal(s.mal.Key.Certificate()) {
				t.Error("installed package not signed by the attacker")
			}
			if string(res.Installed.Image().Files["classes.dex"]) != "gia-payload" {
				t.Errorf("payload = %q", res.Installed.Image().Files["classes.dex"])
			}
			if n := len(atk.Replacements()); n != 1 {
				t.Errorf("replacements = %d, want 1", n)
			}
		})
	}
}

func TestWaitAndSeeHijack(t *testing.T) {
	// The paper's pre-measured delays: 2 s for DTIgnite, 500 ms for
	// Amazon and Baidu.
	for _, prof := range []installer.Profile{installer.DTIgnite(), installer.Amazon(), installer.Baidu()} {
		prof := prof
		t.Run(prof.Package, func(t *testing.T) {
			s := newScenario(t, prof, 23)
			atk := NewTOCTOU(s.mal, ConfigForStore(prof, StrategyWaitAndSee), s.target)
			if err := atk.Launch(); err != nil {
				t.Fatal(err)
			}
			defer atk.Stop()

			res := s.runAIT(t)
			if !res.Succeeded() || !res.Hijacked {
				t.Fatalf("hijack failed: err=%v hijacked=%v", res.Err, res.Hijacked)
			}
		})
	}
}

func TestHijackThroughPIAConsentDialog(t *testing.T) {
	// SlideMe installs via the PIA: the replacement carries the original
	// manifest so the consent dialog shows the genuine label and icon and
	// the pre-dialog manifest checksum matches.
	s := newScenario(t, installer.SlideMe(), 31)
	atk := NewTOCTOU(s.mal, ConfigForStore(installer.SlideMe(), StrategyFileObserver), s.target)
	if err := atk.Launch(); err != nil {
		t.Fatal(err)
	}
	defer atk.Stop()

	res := s.runAIT(t)
	if !res.Succeeded() || !res.Hijacked {
		t.Fatalf("PIA hijack failed: err=%v hijacked=%v", res.Err, res.Hijacked)
	}
}

func TestInternalStorageDefeatsHijack(t *testing.T) {
	// Google Play stages internally: the attacker's replacement rename is
	// rejected by the internal-storage policy, and the install stays clean.
	prof := installer.GooglePlay()
	s := newScenario(t, prof, 41)
	cfg := ConfigForStore(prof, StrategyFileObserver)
	atk := NewTOCTOU(s.mal, cfg, s.target)
	if err := atk.Launch(); err != nil {
		t.Fatal(err)
	}
	defer atk.Stop()

	res := s.runAIT(t)
	if !res.Clean() {
		t.Fatalf("internal-storage AIT not clean: err=%v hijacked=%v", res.Err, res.Hijacked)
	}
	if len(atk.Replacements()) != 0 {
		t.Errorf("replacements on internal storage = %v", atk.Replacements())
	}
}

func TestTooEarlyWaitAndSeeBurnsRetries(t *testing.T) {
	// A wait-and-see strike before the hash check corrupts the file too
	// early: the store re-downloads transparently, and with the same bad
	// delay every attempt fails until the retry budget is exhausted.
	prof := installer.DTIgnite()
	s := newScenario(t, prof, 47)
	cfg := ConfigForStore(prof, StrategyWaitAndSee)
	cfg.WaitDelay = 100 * time.Millisecond // before the ~360 ms check
	atk := NewTOCTOU(s.mal, cfg, s.target)
	if err := atk.Launch(); err != nil {
		t.Fatal(err)
	}
	defer atk.Stop()

	res := s.runAIT(t)
	if !errors.Is(res.Err, installer.ErrHashMismatch) {
		t.Fatalf("err = %v, want ErrHashMismatch", res.Err)
	}
	if res.Attempts != prof.Redownloads+1 {
		t.Errorf("attempts = %d, want %d", res.Attempts, prof.Redownloads+1)
	}
	if len(atk.Replacements()) < 2 {
		t.Errorf("replacements = %d, want one per attempt", len(atk.Replacements()))
	}
}

func TestPatchedFUSEStopsHijack(t *testing.T) {
	for _, strategy := range []Strategy{StrategyFileObserver, StrategyWaitAndSee} {
		t.Run(strategy.String(), func(t *testing.T) {
			prof := installer.Amazon()
			s := newScenario(t, prof, 53)
			s.dev.Fuse.SetPatched(true)
			atk := NewTOCTOU(s.mal, ConfigForStore(prof, strategy), s.target)
			if err := atk.Launch(); err != nil {
				t.Fatal(err)
			}
			defer atk.Stop()

			res := s.runAIT(t)
			if !res.Clean() {
				t.Fatalf("patched FUSE failed to protect: err=%v hijacked=%v", res.Err, res.Hijacked)
			}
			if len(atk.Replacements()) != 0 {
				t.Errorf("replacements despite patch = %v", atk.Replacements())
			}
		})
	}
}

func TestSilentStorageGrantUnderRuntimeModel(t *testing.T) {
	d, err := device.Boot(device.Profile{Name: "m", Vendor: "samsung", RuntimePermissions: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mal, err := DeployMalware(d, "com.fun.game")
	if err != nil {
		t.Fatal(err)
	}
	if !mal.Pkg.Granted(perm.WriteExternalStorage) {
		t.Error("malware lacks WRITE_EXTERNAL_STORAGE after the group trick")
	}
}

func TestDMSymlinkStealAcrossPolicies(t *testing.T) {
	tests := []struct {
		policy   dm.SymlinkPolicy
		wantWin  bool
		maxTries int
	}{
		{policy: dm.PolicyLegacy, wantWin: true, maxTries: 1},
		{policy: dm.PolicyRecheck, wantWin: true, maxTries: 50},
		{policy: dm.PolicyFixed, wantWin: false, maxTries: 50},
	}
	for _, tt := range tests {
		t.Run(tt.policy.String(), func(t *testing.T) {
			d, err := device.Boot(device.Profile{Name: "n5", Vendor: "lge", DMPolicy: tt.policy, Seed: 61})
			if err != nil {
				t.Fatal(err)
			}
			mal, err := DeployMalware(d, "com.fun.game")
			if err != nil {
				t.Fatal(err)
			}
			// A victim app holds a private secret in internal storage.
			victim, err := d.PMS.InstallFromParsed(apk.Build(apk.Manifest{
				Package: "com.android.vending", VersionCode: 1, Label: "Play",
			}, nil, sig.NewKey("play")))
			if err != nil {
				t.Fatal(err)
			}
			d.Run() // create data dirs
			secretPath := "/data/data/com.android.vending/files/url-tokens"
			if err := d.FS.WriteFile(secretPath, []byte("secret-play-tokens"), victim.UID, vfs.ModePrivate); err != nil {
				t.Fatal(err)
			}
			// Directly, the malware cannot read it.
			if _, err := d.FS.ReadFile(secretPath, mal.UID()); !errors.Is(err, vfs.ErrPermission) {
				t.Fatalf("direct read = %v, want ErrPermission", err)
			}

			atk, err := NewDMSymlink(mal)
			if err != nil {
				t.Fatal(err)
			}
			var stolen []byte
			var stealErr error
			done := false
			atk.Steal(secretPath, tt.maxTries, func(b []byte, err error) {
				stolen, stealErr, done = b, err, true
			})
			d.Run()
			if !done {
				t.Fatal("steal never finished")
			}
			if tt.wantWin {
				if stealErr != nil {
					t.Fatalf("steal failed on %v: %v (tries=%d)", tt.policy, stealErr, atk.Tries())
				}
				if string(stolen) != "secret-play-tokens" {
					t.Errorf("stolen = %q", stolen)
				}
			} else {
				if stealErr == nil {
					t.Fatalf("steal succeeded on the fixed policy: %q", stolen)
				}
			}
		})
	}
}

func TestDMSymlinkDoSOnPlay(t *testing.T) {
	d, err := device.Boot(device.Profile{Name: "n5", Vendor: "lge", DMPolicy: dm.PolicyLegacy, Seed: 67})
	if err != nil {
		t.Fatal(err)
	}
	mal, err := DeployMalware(d, "com.fun.game")
	if err != nil {
		t.Fatal(err)
	}
	atk, err := NewDMSymlink(mal)
	if err != nil {
		t.Fatal(err)
	}
	var delErr error
	done := false
	atk.Delete(dm.DBPath, 10, func(err error) { delErr, done = err, true })
	d.Run()
	if !done || delErr != nil {
		t.Fatalf("delete: done=%v err=%v", done, delErr)
	}
	if d.DM.Healthy() {
		t.Fatal("DM database survived — Play DoS failed")
	}
	// Google Play can no longer download.
	if _, err := d.DM.Enqueue(vfs.UID(10002), "com.android.vending", "https://x/y", "/sdcard/Download/f", nil); !errors.Is(err, dm.ErrDatabase) {
		t.Errorf("post-DoS enqueue = %v", err)
	}
}

// redirectScenario builds the Facebook → Play → Messenger flow.
func redirectScenario(t *testing.T, seed int64) (*device.Device, *Malware, *Redirect) {
	t.Helper()
	d := bootDev(t, seed)
	play, err := installer.Deploy(d, installer.GooglePlay(), nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = play
	// Facebook is an installed app with a UI.
	fb, err := d.PMS.InstallFromParsed(apk.Build(apk.Manifest{
		Package: "com.facebook.katana", VersionCode: 1, Label: "Facebook",
	}, nil, sig.NewKey("facebook")))
	if err != nil {
		t.Fatal(err)
	}
	_ = fb
	d.AMS.RegisterActivity("com.facebook.katana", "Feed", true, "", func(intents.Intent) string { return "facebook:feed" })
	d.Run()

	mal, err := DeployMalware(d, "com.fun.game")
	if err != nil {
		t.Fatal(err)
	}
	red := NewRedirect(mal, RedirectConfig{
		VictimPkg:      "com.facebook.katana",
		StorePkg:       "com.android.vending",
		StoreActivity:  installer.ActivityAppDetails,
		LookalikeAppID: "com.faceb00k.orca",
	})
	return d, mal, red
}

func TestRedirectIntentAttack(t *testing.T) {
	d, _, red := redirectScenario(t, 71)
	if err := red.Launch(); err != nil {
		t.Fatal(err)
	}
	defer red.Stop()

	// The user opens Facebook...
	if err := d.AMS.StartActivity(device.SystemSender, intents.Intent{
		TargetPkg: "com.facebook.katana", Component: "Feed",
	}); err != nil {
		t.Fatal(err)
	}
	d.Sched.RunUntil(200 * time.Millisecond)

	// ...and taps "Install Messenger": Facebook redirects to Play.
	if err := d.AMS.StartActivity("com.facebook.katana", intents.Intent{
		TargetPkg: "com.android.vending", Component: installer.ActivityAppDetails,
		Extras: map[string]string{"appId": "com.facebook.orca"},
	}); err != nil {
		t.Fatal(err)
	}
	// The user perceives the screen about a second later.
	d.Sched.RunUntil(1200 * time.Millisecond)

	if !red.Succeeded() {
		t.Fatalf("screen = %+v, fired = %d, lastErr = %v", d.AMS.Screen(), red.Fired(), red.LastErr())
	}
	if red.Fired() != 1 {
		t.Errorf("fired = %d", red.Fired())
	}
}

func TestRedirectDetectedByIntentFirewall(t *testing.T) {
	d, _, red := redirectScenario(t, 73)
	d.AMS.Firewall().EnableDetection(true)
	if err := red.Launch(); err != nil {
		t.Fatal(err)
	}
	defer red.Stop()

	_ = d.AMS.StartActivity(device.SystemSender, intents.Intent{TargetPkg: "com.facebook.katana", Component: "Feed"})
	d.Sched.RunUntil(200 * time.Millisecond)
	_ = d.AMS.StartActivity("com.facebook.katana", intents.Intent{
		TargetPkg: "com.android.vending", Component: installer.ActivityAppDetails,
		Extras: map[string]string{"appId": "com.facebook.orca"},
	})
	d.Sched.RunUntil(1200 * time.Millisecond)

	alerts := d.AMS.Firewall().Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v", alerts)
	}
	if alerts[0].SecondSender != "com.fun.game" || alerts[0].Recipient != "com.android.vending" {
		t.Errorf("alert = %+v", alerts[0])
	}
}

func TestRedirectOriginExposesSender(t *testing.T) {
	d, _, red := redirectScenario(t, 79)
	d.AMS.Firewall().EnableOrigin(true)

	var origins []string
	d.AMS.RegisterActivity("com.android.vending", "OriginProbe", true, "", func(in intents.Intent) string {
		if o, ok := in.Origin(); ok {
			origins = append(origins, o)
		}
		return "probe"
	})
	_ = red

	_ = d.AMS.StartActivity("com.facebook.katana", intents.Intent{TargetPkg: "com.android.vending", Component: "OriginProbe"})
	_ = d.AMS.StartActivity("com.fun.game", intents.Intent{TargetPkg: "com.android.vending", Component: "OriginProbe"})
	d.Run()
	if len(origins) != 2 || origins[0] != "com.facebook.katana" || origins[1] != "com.fun.game" {
		t.Errorf("origins = %v", origins)
	}
}

func TestHareEscalationEndToEnd(t *testing.T) {
	// The malware exploits Xiaomi's unauthenticated push receiver (a GIA)
	// to silently install the platform-signed, Hare-creating system app,
	// then reads the user's contacts through the hijacked permission.
	s := newScenario(t, installer.Xiaomi(), 83)
	hare := NewHareEscalation(s.mal, "com.vlingo.midas.contacts.permission.READ", "com.vlingo.midas")

	// 1. Define the hanging permission before the victim app exists.
	if err := hare.DefinePermission(); err != nil {
		t.Fatal(err)
	}
	// 2. Publish the victim system app on the store and push-install it.
	victimAPK := hare.BuildVictimApp(s.dev.Profile.PlatformKey)
	s.store.Store.Publish(victimAPK)
	n, err := s.dev.AMS.SendBroadcast(s.mal.Name(), intents.Intent{
		Action: installer.PushAction("com.xiaomi.market"),
		Extras: map[string]string{"payload": `{"jsonContent":"{\"type\":\"app\",\"appId\":\"7\",\"packageName\":\"com.vlingo.midas\"}"}`},
	})
	if err != nil || n != 1 {
		t.Fatalf("push = %d, %v", n, err)
	}
	s.dev.Run()
	if _, ok := s.dev.PMS.Installed("com.vlingo.midas"); !ok {
		t.Fatal("victim system app not installed")
	}
	hare.RegisterVictimComponents(s.dev)

	// 3. Steal the contacts.
	content, err := hare.StealContacts()
	if err != nil {
		t.Fatal(err)
	}
	if content != "contacts:[alice:+1-555-0100 bob:+1-555-0101]" {
		t.Errorf("stolen = %q", content)
	}
}

func TestHareBlockedWithoutDefinition(t *testing.T) {
	// Without the prior definition, the permission stays hanging and the
	// malware cannot pass the guard.
	s := newScenario(t, installer.Xiaomi(), 89)
	hare := NewHareEscalation(s.mal, "com.vlingo.midas.contacts.permission.READ", "com.vlingo.midas")
	victimAPK := hare.BuildVictimApp(s.dev.Profile.PlatformKey)
	if _, err := s.dev.PMS.InstallFromParsed(victimAPK); err != nil {
		t.Fatal(err)
	}
	s.dev.Run()
	hare.RegisterVictimComponents(s.dev)
	if _, err := hare.StealContacts(); !errors.Is(err, ErrHareBlocked) {
		t.Fatalf("steal = %v, want ErrHareBlocked", err)
	}
}

// TestParseStrategyRoundTrip: ParseStrategy inverts Strategy.String and
// matches names exactly.
func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range []Strategy{StrategyFileObserver, StrategyWaitAndSee} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, name := range []string{"", "File-Observer", "strategy(3)"} {
		if _, err := ParseStrategy(name); err == nil {
			t.Errorf("ParseStrategy(%q) accepted", name)
		}
	}
}
