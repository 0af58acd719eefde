package device_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/defense"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/perm"
	"github.com/ghost-installer/gia/internal/sig"
)

// TestFullHijackTimeline records a complete hijack with every source wired
// — the device's fs, package and firewall streams, DAPP's alerts and the
// AIT merged in after the run — and checks the narrative order: download
// events, attacker replacement, DAPP race alert, install, DAPP signature
// alert.
func TestFullHijackTimeline(t *testing.T) {
	dev, err := device.Boot(device.Profile{Name: "s6", Vendor: "samsung", Seed: 601})
	if err != nil {
		t.Fatal(err)
	}
	prof := installer.Amazon()
	store, err := installer.Deploy(dev, prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := apk.Build(apk.Manifest{
		Package: "com.popular.app", VersionCode: 1, Label: "Popular",
		UsesPerms: []string{perm.Internet},
	}, map[string][]byte{"classes.dex": []byte("genuine")}, sig.NewKey("dev"))
	store.Store.Publish(target)
	mal, err := attack.DeployMalware(dev, "com.fun.game")
	if err != nil {
		t.Fatal(err)
	}
	dapp, err := defense.Deploy(dev, []string{prof.StagingDir})
	if err != nil {
		t.Fatal(err)
	}

	k := new(obs.Track)
	k.SetClock(dev.Sched.Now)
	stop, err := dev.Record(k, prof.StagingDir)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	dapp.OnAlert(func(a defense.Alert) {
		k.Instant("dapp", fmt.Sprintf("%s %s: %s", a.Kind, a.Package, a.Detail))
	})

	atk := attack.NewTOCTOU(mal, attack.ConfigForStore(prof, attack.StrategyFileObserver), target)
	if err := atk.Launch(); err != nil {
		t.Fatal(err)
	}
	defer atk.Stop()

	var res installer.Result
	store.RequestInstall("com.popular.app", func(r installer.Result) { res = r })
	dev.Sched.RunUntil(dev.Sched.Now() + 2*time.Minute)
	if !res.Hijacked {
		t.Fatalf("hijack failed: %v", res.Err)
	}
	res.Record(k)
	res.Record(nil) // a nil track is a no-op

	var b strings.Builder
	if err := obs.WriteText(&b, k.Sorted()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The narrative landmarks, in order. DAPP's observer registered
	// before the recorder's, so its race alert precedes the recorder's
	// MOVED_TO line within the same instant.
	landmarks := []string{
		"CREATE",             // staged file appears
		"CLOSE_WRITE",        // download completes
		"race-suspected",     // DAPP's first heuristic (the replacement)
		"MOVED_TO",           // the replacement as the recorder saw it
		"PACKAGE_ADDED",      // PMS installs
		"signature-mismatch", // DAPP's final verdict
	}
	pos := 0
	for _, mark := range landmarks {
		idx := strings.Index(out[pos:], mark)
		if idx < 0 {
			t.Fatalf("timeline missing %q after offset %d:\n%s", mark, pos, out)
		}
		pos += idx
	}
	// The AIT steps are merged at their original timestamps.
	if !strings.Contains(out, "step 1 invocation") || !strings.Contains(out, "step 4 installed") {
		t.Errorf("AIT steps missing from timeline:\n%s", out)
	}
}
