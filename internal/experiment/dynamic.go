package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/defense"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/dm"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/intents"
	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/vfs"
)

// horizon bounds each simulated run: attacker pollers never drain the
// event queue on their own, so a drive that never goes idle (a transaction
// that never completes) stops here.
const horizon = 2 * time.Minute

// TargetPackage is the app the stores deliver in dynamic scenarios.
const TargetPackage = "com.popular.app"

// Scenario is one device + store + published target + resident malware.
type Scenario struct {
	Dev    *device.Device
	Store  *installer.App
	Mal    *attack.Malware
	Target *apk.APK
}

// NewScenario boots a device, deploys the store profile, publishes the
// target app and plants the malware.
func NewScenario(prof installer.Profile, seed int64) (*Scenario, error) {
	return NewScenarioPayload(prof, seed, genuinePayload)
}

// NewScenarioPayload is NewScenario with a caller-chosen classes.dex
// payload; a payload larger than one transfer chunk (64 KiB) makes the
// download multi-chunk, which the chaos fault rows rely on to truncate a
// transfer mid-flight. The payload must not be modified after the call
// (see NewScenarioPayloadOn).
func NewScenarioPayload(prof installer.Profile, seed int64, payload []byte) (*Scenario, error) {
	dev, err := device.Boot(ScenarioDeviceProfile(seed))
	if err != nil {
		return nil, err
	}
	return NewScenarioPayloadOn(dev, prof, payload)
}

// ScenarioDeviceProfile is the device every dynamic scenario runs on —
// exposed so arena-based callers can pool devices of the same profile and
// build scenarios on them with NewScenarioOn.
func ScenarioDeviceProfile(seed int64) device.Profile {
	return device.Profile{Name: "galaxy-s6-verizon", Vendor: "samsung", Seed: seed}
}

// NewScenarioOn builds the store + target + malware fixture on an
// already-booted (or arena-acquired) device.
func NewScenarioOn(dev *device.Device, prof installer.Profile) (*Scenario, error) {
	return newScenario(dev, fixtureFor(prof, defaultTarget()))
}

// genuinePayload is the classes.dex of the default target.
var genuinePayload = []byte("genuine")

// buildTarget builds and signs the published target app around payload.
// Signing keys are deterministic per subject, so equal payloads build
// byte-identical targets. A target is shared by every scenario that
// publishes it and must be treated as immutable: attacks repackage, never
// mutate.
func buildTarget(payload []byte) *apk.APK {
	return apk.Build(apk.Manifest{
		Package: TargetPackage, VersionCode: 1, Label: "Popular App", Icon: "icon-popular",
		UsesPerms: []string{perm.Internet},
	}, map[string][]byte{"classes.dex": payload}, sig.NewKey("popular-dev"))
}

// defaultTarget is the target built from genuinePayload, once per process.
var defaultTarget = sync.OnceValue(func() *apk.APK { return buildTarget(genuinePayload) })

// payloadTarget is the one entry of NewScenarioPayloadOn's memo: the
// caller's payload slice and the target built from it.
type payloadTarget struct {
	payload []byte
	target  *apk.APK
}

var lastTarget atomic.Pointer[payloadTarget] //gia:global — rebuilding the 900 KiB target costs ~5 ms, against a ~65 µs explore-orders schedule that resolves it here

// targetFor resolves payload to its target through a one-entry memo with
// no lock. The built-in payload is defaultTarget. Any other payload reuses
// the last target built when it is the same buffer (same first byte and
// length, as market.Listing.IsContent tests), which costs one atomic load,
// or holds equal bytes; otherwise a new target is built and replaces the
// entry. The entry holds the slice, so its address cannot be handed to
// another allocation while the identity test can see it.
func targetFor(payload []byte) *apk.APK {
	if bytes.Equal(payload, genuinePayload) {
		return defaultTarget()
	}
	if e := lastTarget.Load(); e != nil && (sameBuffer(e.payload, payload) || bytes.Equal(e.payload, payload)) {
		return e.target
	}
	t := buildTarget(payload)
	lastTarget.Store(&payloadTarget{payload: payload, target: t})
	return t
}

// sameBuffer reports whether a and b are the same bytes in memory.
func sameBuffer(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// fixture is what every scenario of one store profile and one published
// target deploys, built once by its owner and shared read-only: the
// store's signing key and system image, the target, and the attacker's kit
// with its replacement of that target prepared.
type fixture struct {
	prof       installer.Profile
	storeKey   *sig.Key
	storeImage *apk.APK
	target     *apk.APK
	kit        *attack.Kit
}

func newFixture(prof installer.Profile, target *apk.APK) *fixture {
	key, image := installer.Image(prof)
	return &fixture{prof: prof, storeKey: key, storeImage: image, target: target, kit: attack.NewKit("com.fun.game", target)}
}

var lastFixture atomic.Pointer[fixture] //gia:global — rebuilding the fixture on every schedule took one explore-orders schedule from ~65 to ~115 µs

// fixtureFor resolves (prof, target) to its fixture through a one-entry
// memo with no lock, beside targetFor's: a hit costs one atomic load and
// one profile comparison, and a miss builds a fixture that replaces the
// entry. Keeping the two entries apart means a scenario of the built-in
// payload never makes the next large-payload scenario rebuild its target.
func fixtureFor(prof installer.Profile, target *apk.APK) *fixture {
	if f := lastFixture.Load(); f != nil && f.target == target && f.prof == prof {
		return f
	}
	f := newFixture(prof, target)
	lastFixture.Store(f)
	return f
}

// NewScenarioPayloadOn is NewScenarioOn with a caller-chosen payload,
// resolved to its target by targetFor. The payload must not be modified
// after the call, or a later call with the same buffer publishes the
// target of its old bytes.
func NewScenarioPayloadOn(dev *device.Device, prof installer.Profile, payload []byte) (*Scenario, error) {
	return newScenario(dev, fixtureFor(prof, targetFor(payload)))
}

// newScenario deploys fx on dev: the store's image, the published target
// and the malware.
func newScenario(dev *device.Device, fx *fixture) (*Scenario, error) {
	store, err := installer.DeployImage(dev, fx.prof, fx.storeKey, fx.storeImage)
	if err != nil {
		return nil, err
	}
	store.Store.Publish(fx.target)
	mal, err := fx.kit.Deploy(dev)
	if err != nil {
		return nil, err
	}
	return &Scenario{Dev: dev, Store: store, Mal: mal, Target: fx.target}, nil
}

// RunAIT triggers one installation of the target and drives the clock
// until the transaction has produced its Result and only poller ticks
// remain queued, or one horizon forward if it never completes. Everything
// the install set in motion still runs (the PACKAGE_ADDED broadcast and
// the DAPP check it triggers, strikes already scheduled, pre-staging); a
// poller's later ticks are not simulated, so Sched.Now afterwards is the
// time of the last event that ran, not the horizon.
func (s *Scenario) RunAIT() installer.Result {
	var res installer.Result
	done := false
	s.Store.RequestInstall(TargetPackage, func(r installer.Result) { res, done = r, true })
	s.Dev.Sched.RunUntilIdle(s.Dev.Sched.Now()+horizon, func() bool { return done })
	return res
}

// Hijack launches a TOCTOU attack configured by cfg against the scenario's
// target, drives one installation of it with RunAIT and stops the attack.
// The error is the attack's setup failure, if any.
func (s *Scenario) Hijack(cfg attack.TOCTOUConfig) (installer.Result, *attack.TOCTOU, error) {
	atk := attack.NewTOCTOU(s.Mal, cfg, s.Target)
	if err := atk.Launch(); err != nil {
		return installer.Result{}, nil, err
	}
	res := s.RunAIT()
	atk.Stop()
	return res, atk, nil
}

// HijackOutcome is one row of the hijack study.
type HijackOutcome struct {
	Store        string
	Strategy     attack.Strategy
	Fingerprint  int
	WaitDelay    time.Duration
	Hijacked     bool
	Attempts     int
	Replacements int
	Err          error
}

// HijackStudy runs both Section III-B strategies against every SD-card
// store profile (and Google Play as the internal-storage control).
func HijackStudy(seed int64) ([]HijackOutcome, error) {
	profiles := installer.AllStoreProfiles()
	var out []HijackOutcome
	for i, prof := range profiles {
		for _, strategy := range []attack.Strategy{attack.StrategyFileObserver, attack.StrategyWaitAndSee} {
			// Stream per strategy, index per profile position: profiles can
			// share a package name (Amazon v1/v2), so the position is the
			// collision-free coordinate.
			s, err := NewScenario(prof, deriveSeed(seed, "hijack/"+strategy.String(), int64(i)))
			if err != nil {
				return nil, err
			}
			cfg := attack.ConfigForStore(prof, strategy)
			res, atk, err := s.Hijack(cfg)
			if err != nil {
				return nil, err
			}
			storeName := prof.Package
			if prof.UseManifestVerification {
				storeName += " (v2, manifest-verify)"
			}
			out = append(out, HijackOutcome{
				Store:        storeName,
				Strategy:     strategy,
				Fingerprint:  prof.VerifyReads,
				WaitDelay:    cfg.WaitDelay,
				Hijacked:     res.Hijacked,
				Attempts:     res.Attempts,
				Replacements: len(atk.Replacements()),
				Err:          res.Err,
			})
		}
	}
	return out, nil
}

// HijackTable renders the hijack study.
func HijackTable(seed int64) (Table, error) {
	outcomes, err := HijackStudy(seed)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Hijack Study",
		Title:  "Installation hijacking per store and strategy (Section III-B)",
		Header: []string{"Store", "Strategy", "Fingerprint", "Wait delay", "Hijacked", "Attempts"},
	}
	for _, o := range outcomes {
		fp := fmt.Sprintf("%d reads", o.Fingerprint)
		wait := "-"
		if o.Strategy == attack.StrategyWaitAndSee {
			fp = "-"
			wait = o.WaitDelay.String()
		}
		t.Rows = append(t.Rows, []string{
			o.Store, o.Strategy.String(), fp, wait,
			fmt.Sprintf("%v", o.Hijacked), fmt.Sprintf("%d", o.Attempts),
		})
	}
	t.Notes = append(t.Notes,
		"google play (internal storage) is the negative control",
		"wait-and-see uses the paper's measured delays (2 s DTIgnite, 500 ms Amazon/Baidu); stores the paper attacked via FileObserver fingerprints may resist the generic 500 ms delay")
	return t, nil
}

// TableV verifies the vulnerable pre-installed installers and reports their
// real-world footprint.
func TableV(seed int64) (Table, error) {
	type entry struct {
		prof     installer.Profile
		devices  string
		carriers string
		vendors  string
		static   bool // SprintZone was statically verified only
	}
	entries := []entry{
		{prof: installer.Amazon(), devices: "Verizon & US Cellular Android devices (Galaxy S4/S5/S6/S6 edge, Note 3/4)", carriers: "Verizon, US Cellular", vendors: "Samsung, LG, HTC, Motorola"},
		{prof: installer.DTIgnite(), devices: "devices of 30+ carriers (50M+ pushed installs)", carriers: "Verizon, T-Mobile, AT&T, Vodafone, Singtel", vendors: "via affected carriers"},
		{prof: installer.Xiaomi(), devices: "all Xiaomi devices", carriers: "China Mobile, China Telecom, China Unicom", vendors: "Xiaomi"},
		{prof: installer.HuaweiStore(), devices: "all Huawei devices", carriers: "China Mobile, China Telecom, China Unicom", vendors: "Huawei"},
		{prof: installer.SprintZone(), devices: "Sprint-released Android devices", carriers: "Sprint", vendors: "via Sprint", static: true},
	}
	t := Table{
		ID:     "Table V",
		Title:  "Impact of vulnerable pre-installed apps with INSTALL_PACKAGES",
		Header: []string{"Vulnerable app", "Verified", "Affected devices", "Affected carriers", "Affected vendors"},
	}
	for _, e := range entries {
		verified := "attack reproduced"
		if e.static {
			verified = "static analysis only"
		} else {
			s, err := NewScenario(e.prof, deriveSeed(seed, "tablev/"+e.prof.Package, 0))
			if err != nil {
				return Table{}, err
			}
			res, _, err := s.Hijack(attack.ConfigForStore(e.prof, attack.StrategyFileObserver))
			if err != nil {
				return Table{}, err
			}
			if !res.Hijacked {
				verified = fmt.Sprintf("NOT reproduced (%v)", res.Err)
			}
		}
		t.Rows = append(t.Rows, []string{e.prof.Label, verified, e.devices, e.carriers, e.vendors})
	}
	return t, nil
}

// DMOutcome is one row of the Download Manager study.
type DMOutcome struct {
	Policy    dm.SymlinkPolicy
	Operation string
	Succeeded bool
	Tries     int
	DMHealthy bool
}

// DMStudy exercises the Section III-C attack across the three DM policies.
func DMStudy(seed int64) ([]DMOutcome, error) {
	var out []DMOutcome
	for _, policy := range []dm.SymlinkPolicy{dm.PolicyLegacy, dm.PolicyRecheck, dm.PolicyFixed} {
		for j, op := range []string{"steal-private-file", "delete-dm-database"} {
			dev, err := device.Boot(device.Profile{Name: "nexus5", Vendor: "lge", DMPolicy: policy, Seed: deriveSeed(seed, "dm/"+policy.String(), int64(j))})
			if err != nil {
				return nil, err
			}
			mal, err := attack.DeployMalware(dev, "com.fun.game")
			if err != nil {
				return nil, err
			}
			victim, err := dev.PMS.InstallFromParsed(apk.Build(apk.Manifest{
				Package: "com.android.vending", VersionCode: 1, Label: "Play",
			}, nil, sig.NewKey("play")))
			if err != nil {
				return nil, err
			}
			dev.Run()
			secret := "/data/data/com.android.vending/files/url-tokens"
			if err := dev.FS.WriteFile(secret, []byte("tokens"), victim.UID, vfs.ModePrivate); err != nil {
				return nil, err
			}
			atk, err := attack.NewDMSymlink(mal)
			if err != nil {
				return nil, err
			}
			o := DMOutcome{Policy: policy, Operation: op}
			switch op {
			case "steal-private-file":
				atk.Steal(secret, 50, func(b []byte, err error) {
					o.Succeeded = err == nil && string(b) == "tokens"
				})
			case "delete-dm-database":
				atk.Delete(dm.DBPath, 50, func(err error) { o.Succeeded = err == nil })
			}
			dev.Sched.RunUntil(dev.Sched.Now() + horizon)
			o.Tries = atk.Tries()
			o.DMHealthy = dev.DM.Healthy()
			out = append(out, o)
		}
	}
	return out, nil
}

// DMTable renders the DM study.
func DMTable(seed int64) (Table, error) {
	outcomes, err := DMStudy(seed)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "DM Study",
		Title:  "Download Manager symlink TOCTOU across policies (Section III-C)",
		Header: []string{"DM policy", "Operation", "Succeeded", "Tries", "DM healthy after"},
	}
	for _, o := range outcomes {
		t.Rows = append(t.Rows, []string{
			o.Policy.String(), o.Operation,
			fmt.Sprintf("%v", o.Succeeded), fmt.Sprintf("%d", o.Tries),
			fmt.Sprintf("%v", o.DMHealthy),
		})
	}
	return t, nil
}

// RedirectOutcome is one row of the redirect study.
type RedirectOutcome struct {
	Defense      string
	ScreenShows  string
	UserDeceived bool
	Alerts       int
	OriginSeen   string
}

// RedirectStudy runs the Facebook→Play redirect attack under each Intent
// defense configuration (Section III-D vs Section V-C).
func RedirectStudy(seed int64) ([]RedirectOutcome, error) {
	configs := []struct {
		name      string
		detection bool
		origin    bool
	}{
		{name: "none (stock Android)"},
		{name: "intent detection", detection: true},
		{name: "intent origin", origin: true},
	}
	var out []RedirectOutcome
	for _, cfg := range configs {
		dev, err := device.Boot(device.Profile{Name: "nexus5", Vendor: "lge", Seed: deriveSeed(seed, "redirect/"+cfg.name, 0)})
		if err != nil {
			return nil, err
		}
		if _, err := installer.Deploy(dev, installer.GooglePlay(), nil); err != nil {
			return nil, err
		}
		if _, err := dev.PMS.InstallFromParsed(apk.Build(apk.Manifest{
			Package: "com.facebook.katana", VersionCode: 1, Label: "Facebook",
		}, nil, sig.NewKey("facebook"))); err != nil {
			return nil, err
		}
		dev.AMS.RegisterActivity("com.facebook.katana", "Feed", true, "", func(intents.Intent) string { return "facebook:feed" })
		dev.Run()
		dev.AMS.Firewall().EnableDetection(cfg.detection)
		dev.AMS.Firewall().EnableOrigin(cfg.origin)

		var origin string
		if cfg.origin {
			// With the origin scheme, the store can display the sender:
			// re-register AppDetails with an origin-aware handler.
			dev.AMS.RegisterActivity("com.android.vending", installer.ActivityAppDetails, true, "",
				func(in intents.Intent) string {
					if o, ok := in.Origin(); ok {
						origin = o
					}
					return "Google Play:details:" + in.Extra("appId") + ":from=" + origin
				})
		}

		mal, err := attack.DeployMalware(dev, "com.fun.game")
		if err != nil {
			return nil, err
		}
		red := attack.NewRedirect(mal, attack.RedirectConfig{
			VictimPkg:      "com.facebook.katana",
			StorePkg:       "com.android.vending",
			StoreActivity:  installer.ActivityAppDetails,
			LookalikeAppID: "com.faceb00k.orca",
		})
		if err := red.Launch(); err != nil {
			return nil, err
		}
		_ = dev.AMS.StartActivity(device.SystemSender, intents.Intent{TargetPkg: "com.facebook.katana", Component: "Feed"})
		dev.Sched.RunUntil(dev.Sched.Now() + 200*time.Millisecond)
		_ = dev.AMS.StartActivity("com.facebook.katana", intents.Intent{
			TargetPkg: "com.android.vending", Component: installer.ActivityAppDetails,
			Extras: map[string]string{"appId": "com.facebook.orca"},
		})
		dev.Sched.RunUntil(dev.Sched.Now() + time.Second)
		red.Stop()

		screen := dev.AMS.Screen()
		alerts := dev.AMS.Firewall().Alerts()
		deceived := screen.Pkg == "com.android.vending" &&
			strings.Contains(screen.Content, "com.faceb00k.orca") &&
			len(alerts) == 0 && origin == ""
		out = append(out, RedirectOutcome{
			Defense:      cfg.name,
			ScreenShows:  screen.Content,
			UserDeceived: deceived,
			Alerts:       len(alerts),
			OriginSeen:   origin,
		})
	}
	return out, nil
}

// RedirectTable renders the redirect study.
func RedirectTable(seed int64) (Table, error) {
	outcomes, err := RedirectStudy(seed)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Redirect Study",
		Title:  "Redirect-Intent attack vs the Intent defenses (Sections III-D, V-C)",
		Header: []string{"Defense", "User deceived", "Alerts", "Origin visible to recipient"},
	}
	for _, o := range outcomes {
		origin := o.OriginSeen
		if origin == "" {
			origin = "-"
		}
		t.Rows = append(t.Rows, []string{
			o.Defense, fmt.Sprintf("%v", o.UserDeceived),
			fmt.Sprintf("%d", o.Alerts), origin,
		})
	}
	return t, nil
}

// InjectionOutcome is one row of the command-injection study.
type InjectionOutcome struct {
	Surface   string
	Fixed     bool
	Installed bool
}

// InjectionStudy exercises the Amazon JS-bridge and Xiaomi push-receiver
// command injections, with and without the paper's fixes.
func InjectionStudy(seed int64) ([]InjectionOutcome, error) {
	var out []InjectionOutcome
	run := func(name string, prof installer.Profile, fixed bool, fire func(dev *device.Device) error) error {
		s, err := NewScenario(prof, seed)
		if err != nil {
			return err
		}
		if err := fire(s.Dev); err != nil && !fixed {
			return err
		}
		s.Dev.Sched.RunUntil(s.Dev.Sched.Now() + horizon)
		_, installed := s.Dev.PMS.Installed(TargetPackage)
		out = append(out, InjectionOutcome{Surface: name, Fixed: fixed, Installed: installed})
		return nil
	}
	amazon := installer.Amazon()
	amazonFixed := installer.Amazon()
	amazonFixed.JSBridgeSanitized = true
	xiaomi := installer.Xiaomi()
	xiaomiFixed := installer.Xiaomi()
	xiaomiFixed.PushAuth = installer.ReceiverGuarded

	jsFire := func(dev *device.Device) error {
		return dev.AMS.StartActivity("com.fun.game", intents.Intent{
			TargetPkg: amazon.Package, Component: installer.ActivityVenezia,
			SingleTop: true,
			Extras:    map[string]string{"jsPayload": "install:" + TargetPackage},
		})
	}
	pushFire := func(dev *device.Device) error {
		_, err := dev.AMS.SendBroadcast("com.fun.game", intents.Intent{
			Action: installer.PushAction(xiaomi.Package),
			Extras: map[string]string{"payload": `{"jsonContent":"{\"type\":\"app\",\"appId\":\"1\",\"packageName\":\"` + TargetPackage + `\"}"}`},
		})
		return err
	}
	if err := run("amazon js-bridge", amazon, false, jsFire); err != nil {
		return nil, err
	}
	if err := run("amazon js-bridge (sanitized)", amazonFixed, true, jsFire); err != nil {
		return nil, err
	}
	if err := run("xiaomi push receiver", xiaomi, false, pushFire); err != nil {
		return nil, err
	}
	if err := run("xiaomi push receiver (guarded)", xiaomiFixed, true, pushFire); err != nil {
		return nil, err
	}
	return out, nil
}

// Figure1 reproduces the AIT step diagram as a per-store trace table.
func Figure1(seed int64) (Table, error) {
	t := Table{
		ID:     "Figure 1",
		Title:  "App Installation Transaction (AIT) steps",
		Header: []string{"Store", "Step", "Phase", "Virtual time", "Detail"},
	}
	for _, prof := range []installer.Profile{installer.Amazon(), installer.DTIgnite(), installer.SlideMe(), installer.GooglePlay()} {
		s, err := NewScenario(prof, deriveSeed(seed, "figure1/"+prof.Package, 0))
		if err != nil {
			return Table{}, err
		}
		res := s.RunAIT()
		if res.Err != nil {
			return Table{}, fmt.Errorf("figure 1 trace for %s: %w", prof.Package, res.Err)
		}
		for _, step := range res.Trace {
			t.Rows = append(t.Rows, []string{
				prof.Package,
				fmt.Sprintf("%d", step.Step),
				step.Name,
				fmt.Sprintf("%.1fms", float64(step.At)/float64(time.Millisecond)),
				step.Detail,
			})
		}
	}
	return t, nil
}

// DAPPTable renders the Section VI DAPP evaluation: clean installs with
// zero false positives plus full detection of landed hijacks.
func DAPPTable(seed int64, cleanInstalls, attacks int) (Table, error) {
	res, err := DAPPStudy(seed, cleanInstalls, attacks)
	if err != nil {
		return Table{}, err
	}
	return Table{
		ID:     "DAPP Study",
		Title:  "DAPP effectiveness (Section VI): false positives and detection",
		Header: []string{"Clean installs", "False positives", "Hijacks landed", "Hijacks detected"},
		Rows: [][]string{{
			fmt.Sprintf("%d", res.CleanInstalls),
			fmt.Sprintf("%d", res.FalsePositives),
			fmt.Sprintf("%d", res.Attacks),
			fmt.Sprintf("%d", res.Detected),
		}},
		Notes: []string{"the paper's trace: 924 installs over 45 days, zero false alarms"},
	}, nil
}

// DAPPStudyResult summarizes the Section VI DAPP evaluation.
type DAPPStudyResult struct {
	CleanInstalls  int
	FalsePositives int
	Attacks        int
	Detected       int
}

// DAPPStudy reproduces the false-positive and detection study: many clean
// installs across store profiles (the paper's 45-day / 924-install trace)
// plus hijack attempts that DAPP must flag.
func DAPPStudy(seed int64, cleanInstalls, attacks int) (DAPPStudyResult, error) {
	var res DAPPStudyResult
	profiles := []installer.Profile{
		installer.Amazon(), installer.Xiaomi(), installer.Baidu(),
		installer.Qihoo360(), installer.DTIgnite(), installer.Tencent(),
	}
	// Clean phase: one long-lived device and DAPP, many installs.
	s, err := NewScenario(profiles[0], seed)
	if err != nil {
		return res, err
	}
	stores := []*installer.App{s.Store}
	dirs := []string{profiles[0].StagingDir}
	for _, prof := range profiles[1:] {
		app, err := installer.Deploy(s.Dev, prof, nil)
		if err != nil {
			return res, err
		}
		stores = append(stores, app)
		dirs = append(dirs, prof.StagingDir)
	}
	dapp, err := defense.Deploy(s.Dev, dirs)
	if err != nil {
		return res, err
	}
	for i := 0; i < cleanInstalls; i++ {
		store := stores[i%len(stores)]
		pkg := fmt.Sprintf("com.daily.app%04d", i)
		store.Store.Publish(apk.Build(apk.Manifest{
			Package: pkg, VersionCode: 1, Label: pkg,
		}, map[string][]byte{"classes.dex": []byte(pkg)}, sig.NewKey(pkg+"-dev")))
		store.RequestInstall(pkg, nil)
		s.Dev.Sched.RunUntil(s.Dev.Sched.Now() + horizon)
		res.CleanInstalls++
	}
	res.FalsePositives = len(dapp.Alerts())

	// Attack phase: fresh scenarios with DAPP armed, hijacks must be
	// detected.
	for i := 0; i < attacks; i++ {
		prof := profiles[i%len(profiles)]
		as, err := NewScenario(prof, deriveSeed(seed, "dapp/attack", int64(i)))
		if err != nil {
			return res, err
		}
		adapp, err := defense.Deploy(as.Dev, []string{prof.StagingDir})
		if err != nil {
			return res, err
		}
		r, _, err := as.Hijack(attack.ConfigForStore(prof, attack.StrategyFileObserver))
		if err != nil {
			return res, err
		}
		if r.Hijacked {
			res.Attacks++
			if adapp.Thwarted(TargetPackage) {
				res.Detected++
			}
		}
	}
	return res, nil
}
