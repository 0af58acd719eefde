package devicetest_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/defense"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/devicetest"
	"github.com/ghost-installer/gia/internal/experiment"
	"github.com/ghost-installer/gia/internal/fault"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/intents"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/vfs"
)

// The two seeds every cell compares across: the fresh boot and the final
// arena acquisition use compareSeed, the dirtying run uses dirtySeed, so
// the reset must scrub a genuinely different execution's state.
const (
	compareSeed = 41
	dirtySeed   = 1009
)

const horizon = 2 * time.Minute

// report writes a defense's observable verdict into the drive transcript.
type report func(b *strings.Builder)

// defenseCase arms one Section V defense on an arbitrary device. watchDirs
// is the staging surface DAPP should observe in this scenario.
type defenseCase struct {
	name  string
	apply func(dev *device.Device, watchDirs []string) (report, error)
}

func defenses() []defenseCase {
	return []defenseCase{
		{name: "none", apply: func(*device.Device, []string) (report, error) {
			return nil, nil
		}},
		{name: "dapp", apply: func(dev *device.Device, watchDirs []string) (report, error) {
			d, err := defense.Deploy(dev, watchDirs)
			if err != nil {
				return nil, err
			}
			return func(b *strings.Builder) {
				fmt.Fprintf(b, "dapp alerts=%d thwarted=%v\n", len(d.Alerts()), d.Thwarted(experiment.TargetPackage))
			}, nil
		}},
		{name: "fuse-patch", apply: func(dev *device.Device, _ []string) (report, error) {
			dev.Fuse.SetPatched(true)
			return nil, nil
		}},
		{name: "intent-detection", apply: func(dev *device.Device, _ []string) (report, error) {
			dev.AMS.Firewall().EnableDetection(true)
			return func(b *strings.Builder) {
				fmt.Fprintf(b, "firewall alerts=%d\n", len(dev.AMS.Firewall().Alerts()))
			}, nil
		}},
		{name: "intent-origin", apply: func(dev *device.Device, _ []string) (report, error) {
			dev.AMS.Firewall().EnableOrigin(true)
			return func(b *strings.Builder) {
				fmt.Fprintf(b, "firewall alerts=%d\n", len(dev.AMS.Firewall().Alerts()))
			}, nil
		}},
	}
}

// toctouDrive runs the Section III-B installation hijack: store scenario,
// TOCTOU attack with the given strategy, one AIT, timeline over the staging
// dir and the package stream.
func toctouDrive(prof installer.Profile, strategy attack.Strategy) func(defenseCase) devicetest.Drive {
	return func(def defenseCase) devicetest.Drive {
		return func(dev *device.Device) (string, error) {
			var b strings.Builder
			s, err := experiment.NewScenarioOn(dev, prof)
			if err != nil {
				return "", err
			}
			rep, err := def.apply(dev, []string{prof.StagingDir})
			if err != nil {
				return "", err
			}
			tl := new(obs.Track)
			stop, err := dev.Record(tl, prof.StagingDir)
			if err != nil {
				return "", err
			}
			defer stop()
			atk := attack.NewTOCTOU(s.Mal, attack.ConfigForStore(prof, strategy), s.Target)
			if err := atk.Launch(); err != nil {
				return "", err
			}
			res := s.RunAIT()
			atk.Stop()
			res.Record(tl)
			fmt.Fprintf(&b, "hijacked=%v attempts=%d replacements=%d err=%v\n",
				res.Hijacked, res.Attempts, len(atk.Replacements()), res.Err)
			if rep != nil {
				rep(&b)
			}
			if err := obs.WriteText(&b, tl.Sorted()); err != nil {
				return "", err
			}
			return b.String(), nil
		}
	}
}

// dmDrive runs the Section III-C Download Manager symlink attack: the
// malware steals a private file of the Play store through the DM.
func dmDrive(def defenseCase) devicetest.Drive {
	return func(dev *device.Device) (string, error) {
		var b strings.Builder
		rep, err := def.apply(dev, []string{"/sdcard/Download"})
		if err != nil {
			return "", err
		}
		tl := new(obs.Track)
		stop, err := dev.Record(tl, "/sdcard/Download")
		if err != nil {
			return "", err
		}
		defer stop()
		mal, err := attack.DeployMalware(dev, "com.fun.game")
		if err != nil {
			return "", err
		}
		victim, err := dev.PMS.InstallFromParsed(apk.Build(apk.Manifest{
			Package: "com.android.vending", VersionCode: 1, Label: "Play",
		}, nil, sig.NewKey("play")))
		if err != nil {
			return "", err
		}
		dev.Run()
		secret := "/data/data/com.android.vending/files/url-tokens"
		if err := dev.FS.WriteFile(secret, []byte("tokens"), victim.UID, vfs.ModePrivate); err != nil {
			return "", err
		}
		atk, err := attack.NewDMSymlink(mal)
		if err != nil {
			return "", err
		}
		var stole string
		atk.Steal(secret, 50, func(data []byte, err error) {
			stole = fmt.Sprintf("data=%q err=%v", data, err)
		})
		dev.Sched.RunUntil(dev.Sched.Now() + horizon)
		fmt.Fprintf(&b, "steal: %s tries=%d dm_healthy=%v\n", stole, atk.Tries(), dev.DM.Healthy())
		if rep != nil {
			rep(&b)
		}
		if err := obs.WriteText(&b, tl.Sorted()); err != nil {
			return "", err
		}
		return b.String(), nil
	}
}

// redirectDrive runs the Section III-D Intent redirect: malware steers a
// Facebook→Play navigation onto a lookalike app-details page.
func redirectDrive(def defenseCase) devicetest.Drive {
	return func(dev *device.Device) (string, error) {
		var b strings.Builder
		if _, err := installer.Deploy(dev, installer.GooglePlay(), nil); err != nil {
			return "", err
		}
		if _, err := dev.PMS.InstallFromParsed(apk.Build(apk.Manifest{
			Package: "com.facebook.katana", VersionCode: 1, Label: "Facebook",
		}, nil, sig.NewKey("facebook"))); err != nil {
			return "", err
		}
		dev.AMS.RegisterActivity("com.facebook.katana", "Feed", true, "",
			func(intents.Intent) string { return "facebook:feed" })
		dev.Run()
		rep, err := def.apply(dev, []string{"/sdcard/Download"})
		if err != nil {
			return "", err
		}
		tl := new(obs.Track)
		if _, err := dev.Record(tl); err != nil {
			return "", err
		}
		mal, err := attack.DeployMalware(dev, "com.fun.game")
		if err != nil {
			return "", err
		}
		red := attack.NewRedirect(mal, attack.RedirectConfig{
			VictimPkg:      "com.facebook.katana",
			StorePkg:       "com.android.vending",
			StoreActivity:  installer.ActivityAppDetails,
			LookalikeAppID: "com.faceb00k.orca",
		})
		if err := red.Launch(); err != nil {
			return "", err
		}
		navErr := dev.AMS.StartActivity(device.SystemSender, intents.Intent{
			TargetPkg: "com.facebook.katana", Component: "Feed",
		})
		dev.Sched.RunUntil(dev.Sched.Now() + 200*time.Millisecond)
		storeErr := dev.AMS.StartActivity("com.facebook.katana", intents.Intent{
			TargetPkg: "com.android.vending", Component: installer.ActivityAppDetails,
			Extras: map[string]string{"appId": "com.facebook.orca"},
		})
		dev.Sched.RunUntil(dev.Sched.Now() + time.Second)
		red.Stop()
		screen := dev.AMS.Screen()
		fmt.Fprintf(&b, "nav_err=%v store_err=%v screen=%s:%s alerts=%d\n",
			navErr, storeErr, screen.Pkg, screen.Content, len(dev.AMS.Firewall().Alerts()))
		if rep != nil {
			rep(&b)
		}
		if err := obs.WriteText(&b, tl.Sorted()); err != nil {
			return "", err
		}
		return b.String(), nil
	}
}

// hareDrive runs the Hare privilege escalation: the malware pre-defines a
// hanging permission used by a platform-signed app, then reads the guarded
// contacts service.
func hareDrive(def defenseCase) devicetest.Drive {
	return func(dev *device.Device) (string, error) {
		var b strings.Builder
		rep, err := def.apply(dev, []string{"/sdcard/Download"})
		if err != nil {
			return "", err
		}
		mal, err := attack.DeployMalware(dev, "com.fun.game")
		if err != nil {
			return "", err
		}
		h := attack.NewHareEscalation(mal, "com.vlingo.midas.contacts.permission.READ", "com.vlingo.midas")
		if err := h.DefinePermission(); err != nil {
			return "", err
		}
		if _, err := dev.InstallSystemApp(h.BuildVictimApp(dev.Profile.PlatformKey)); err != nil {
			return "", err
		}
		dev.Run()
		h.RegisterVictimComponents(dev)
		contacts, err := h.StealContacts()
		fmt.Fprintf(&b, "contacts=%q err=%v\n", contacts, err)
		if rep != nil {
			rep(&b)
		}
		return b.String(), nil
	}
}

// faultedDrive wraps a TOCTOU run in a chaos schedule: the explorer imposes
// the fault plan, jitter and arbiter choices, and the resolved replay token
// lands in the transcript — so token bytes are part of the equivalence.
func faultedDrive(prof installer.Profile, payload []byte, sched chaos.Schedule, plan func() *chaos.FaultPlan) devicetest.Drive {
	return func(dev *device.Device) (string, error) {
		var b strings.Builder
		ex := &chaos.Explorer{Workers: 1, Plan: plan()}
		resolved, runErr := ex.Check(sched, func(r *chaos.Run) error {
			s, err := experiment.NewScenarioPayloadOn(dev, prof, payload)
			if err != nil {
				return err
			}
			s.Instrument(r)
			atk := attack.NewTOCTOU(s.Mal, attack.ConfigForStore(prof, attack.StrategyFileObserver), s.Target)
			if err := atk.Launch(); err != nil {
				return err
			}
			res := s.RunAIT()
			atk.Stop()
			fmt.Fprintf(&b, "hijacked=%v attempts=%d err=%v fault_hits=%d\n",
				res.Hijacked, res.Attempts, res.Err, len(r.Hits()))
			return nil
		})
		fmt.Fprintf(&b, "token=%s run_err=%v\n", resolved.Token(), runErr)
		return b.String(), nil
	}
}

// TestArenaResetEquivalence pins the arena's core contract — Reset ≡ Boot —
// across every GIA × defense cell plus fault-injected chaos schedules: a
// fresh device.Boot and an arena-reset device must produce byte-identical
// transcripts (timelines, attack outcomes, replay tokens), snapshots,
// scheduler fingerprints and random streams.
func TestArenaResetEquivalence(t *testing.T) {
	galaxy := experiment.ScenarioDeviceProfile(0)
	nexus := device.Profile{Name: "nexus5", Vendor: "lge"}

	gias := []struct {
		name    string
		profile device.Profile
		drive   func(defenseCase) devicetest.Drive
	}{
		{"toctou-fileobserver", galaxy, toctouDrive(installer.Amazon(), attack.StrategyFileObserver)},
		{"toctou-waitandsee", galaxy, toctouDrive(installer.Amazon(), attack.StrategyWaitAndSee)},
		{"dm-symlink", nexus, dmDrive},
		{"intent-redirect", nexus, redirectDrive},
		{"hare-escalation", galaxy, hareDrive},
	}
	for _, gia := range gias {
		for _, def := range defenses() {
			gia, def := gia, def
			t.Run(gia.name+"/"+def.name, func(t *testing.T) {
				t.Parallel()
				if err := devicetest.CompareBootReset(gia.profile, compareSeed, dirtySeed, gia.drive(def)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}

	faults := []struct {
		name  string
		drive devicetest.Drive
	}{
		{"dm-truncate", faultedDrive(installer.DTIgnite(), bytes.Repeat([]byte("x"), 200<<10),
			chaos.Schedule{Seed: 7},
			func() *chaos.FaultPlan {
				return chaos.NewFaultPlan(7, chaos.Rule{
					Site: fault.SiteDMChunk, Kind: fault.KindTruncate, Skip: 1,
				})
			})},
		{"jitter-quantize", faultedDrive(installer.Amazon(), nil,
			chaos.Schedule{Seed: 7, Jitter: 2 * time.Millisecond, Choices: []int{1}},
			func() *chaos.FaultPlan { return chaos.Quantize(10*time.Millisecond, 0, 0) })},
	}
	for _, fc := range faults {
		fc := fc
		t.Run("fault/"+fc.name, func(t *testing.T) {
			t.Parallel()
			if err := devicetest.CompareBootReset(galaxy, compareSeed, dirtySeed, fc.drive); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeviceResetRestoresRNGStream pins the seeded-stream half of the reset
// contract on its own: after Reset(seed) the scheduler's random draws must
// be bit-identical to a fresh Boot(seed) device's, both immediately and
// after identical activity.
func TestDeviceResetRestoresRNGStream(t *testing.T) {
	prof := experiment.ScenarioDeviceProfile(compareSeed)
	fresh, err := device.Boot(prof)
	if err != nil {
		t.Fatal(err)
	}

	dirtyProf := prof
	dirtyProf.Seed = dirtySeed
	reset, err := device.Boot(dirtyProf)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the stream and the clock, then rewind to the compared seed.
	for i := 0; i < 17; i++ {
		reset.Sched.Uint32()
	}
	reset.Sched.AfterFn(time.Second, func() {})
	reset.Run()
	if err := reset.Reset(compareSeed); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 64; i++ {
		if f, r := fresh.Sched.Uint32(), reset.Sched.Uint32(); f != r {
			t.Fatalf("draw %d diverged: fresh %d, reset %d", i, f, r)
		}
	}
	// Interleave scheduler activity and keep drawing: stream position must
	// track exactly, not just the seed.
	for _, dev := range []*device.Device{fresh, reset} {
		dev.Sched.AfterFn(dev.Sched.Uniform(time.Millisecond, time.Second), func() {})
		dev.Run()
	}
	for i := 0; i < 16; i++ {
		if f, r := fresh.Sched.Float64(), reset.Sched.Float64(); f != r {
			t.Fatalf("post-activity draw %d diverged: fresh %v, reset %v", i, f, r)
		}
	}
	if f, r := fresh.Sched.Fingerprint(), reset.Sched.Fingerprint(); f != r {
		t.Fatalf("scheduler fingerprints diverged: fresh %+v, reset %+v", f, r)
	}
}

// TestCompareDetectsDivergence is the harness's negative control: a drive
// that leaks state across runs (breaking the Drive contract) must be caught
// as a divergence, proving the fingerprint actually bites.
func TestCompareDetectsDivergence(t *testing.T) {
	calls := 0
	leaky := func(dev *device.Device) (string, error) {
		calls++
		return fmt.Sprintf("call=%d", calls), nil
	}
	err := devicetest.CompareBootReset(device.Profile{Name: "nexus5", Vendor: "lge"}, compareSeed, dirtySeed, leaky)
	if err == nil {
		t.Fatal("divergent drive passed the equivalence check")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("unexpected error: %v", err)
	}
}
