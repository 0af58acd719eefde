package experiment

import (
	"fmt"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/dm"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/intents"
	"github.com/ghost-installer/gia/internal/par"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/vfs"
)

// SweepPoint is one configuration of an ablation sweep.
type SweepPoint struct {
	Param       time.Duration
	SuccessRate float64
	Trials      int
}

// sweepGrid fans a params × trials grid out on the worker pool (<= 0
// selects NumCPU) and folds per-trial wins into one SweepPoint per
// parameter. run builds a private world from its derived seed, so trials
// are embarrassingly parallel; the fold is by grid index, so the points
// are identical for any pool size.
func sweepGrid(params []time.Duration, trials, workers int, run func(param time.Duration, trial int) (bool, error)) ([]SweepPoint, error) {
	wins, err := par.Map(workers, len(params)*trials, func(i int) (bool, error) {
		return run(params[i/trials], i%trials)
	})
	if err != nil {
		return nil, err
	}
	var out []SweepPoint
	for pi, param := range params {
		n := 0
		for t := 0; t < trials; t++ {
			if wins[pi*trials+t] {
				n++
			}
		}
		out = append(out, SweepPoint{Param: param, SuccessRate: float64(n) / float64(trials), Trials: trials})
	}
	return out, nil
}

// ReactionLatencySweep measures hijack success as a function of the
// attacker's reaction latency — the ablation behind Section III-B's claim
// that the check-to-install window is "reliably" catchable: success holds
// until the latency outgrows the store's trigger gap.
func ReactionLatencySweep(prof installer.Profile, latencies []time.Duration, trials int, seed int64, workers int) ([]SweepPoint, error) {
	return sweepGrid(latencies, trials, workers, func(latency time.Duration, trial int) (bool, error) {
		s, err := NewScenario(prof, deriveSeed(seed, "reaction/"+latency.String(), int64(trial)))
		if err != nil {
			return false, err
		}
		cfg := attack.ConfigForStore(prof, attack.StrategyFileObserver)
		cfg.ReactMin, cfg.ReactMax = latency, latency
		res, _, err := s.Hijack(cfg)
		return res.Hijacked, err
	})
}

// WaitDelaySweep measures wait-and-see success as a function of the
// pre-measured delay: too early corrupts the file before the check (burning
// the retry budget), in-window wins, too late installs the genuine app.
func WaitDelaySweep(prof installer.Profile, delays []time.Duration, trials int, seed int64, workers int) ([]SweepPoint, error) {
	return sweepGrid(delays, trials, workers, func(delay time.Duration, trial int) (bool, error) {
		s, err := NewScenario(prof, deriveSeed(seed, "waitdelay/"+delay.String(), int64(trial)))
		if err != nil {
			return false, err
		}
		cfg := attack.ConfigForStore(prof, attack.StrategyWaitAndSee)
		cfg.WaitDelay = delay
		res, _, err := s.Hijack(cfg)
		return res.Hijacked, err
	})
}

// DMGapSweep measures the 6.0 recheck policy's exposure as a function of
// the check-to-use gap (with the attacker's flip period fixed): shrinking
// the gap lowers but does not eliminate the win rate — only the fixed
// resolve-once policy does.
func DMGapSweep(gaps []time.Duration, maxTries, trials int, seed int64, workers int) ([]SweepPoint, error) {
	return sweepGrid(gaps, trials, workers, func(gap time.Duration, trial int) (bool, error) {
		dev, err := device.Boot(device.Profile{
			Name: "nexus5", Vendor: "lge",
			DMPolicy: dm.PolicyRecheck, DMRecheckGap: gap,
			Seed: deriveSeed(seed, "dmgap/"+gap.String(), int64(trial)),
		})
		if err != nil {
			return false, err
		}
		mal, err := attack.DeployMalware(dev, "com.fun.game")
		if err != nil {
			return false, err
		}
		victim, err := dev.PMS.InstallFromParsed(apk.Build(apk.Manifest{
			Package: "com.android.vending", VersionCode: 1, Label: "Play",
		}, nil, sig.NewKey("play")))
		if err != nil {
			return false, err
		}
		dev.Run()
		secret := "/data/data/com.android.vending/files/secret"
		if err := dev.FS.WriteFile(secret, []byte("tokens"), victim.UID, vfs.ModePrivate); err != nil {
			return false, err
		}
		atk, err := attack.NewDMSymlink(mal)
		if err != nil {
			return false, err
		}
		won := false
		atk.Steal(secret, maxTries, func(b []byte, err error) {
			won = err == nil && string(b) == "tokens"
		})
		dev.Sched.RunUntil(dev.Sched.Now() + horizon)
		return won, nil
	})
}

// ThresholdOutcome reports one detection-threshold configuration.
type ThresholdOutcome struct {
	Threshold      time.Duration
	AttackDetected bool
	FalsePositives int
	BenignSends    int
}

// DetectionThresholdSweep ablates the IntentFirewall's 1-second window:
// small thresholds miss the redirect attack (whose racing Intent lands tens
// of milliseconds after the legitimate one), while oversized thresholds
// start flagging ordinary user navigation.
func DetectionThresholdSweep(thresholds []time.Duration, seed int64, workers int) ([]ThresholdOutcome, error) {
	return par.Map(workers, len(thresholds), func(i int) (ThresholdOutcome, error) {
		th := thresholds[i]
		return detectionThresholdTrial(th, deriveSeed(seed, "threshold/"+th.String(), 0))
	})
}

// detectionThresholdTrial runs one threshold configuration on a private
// device: the redirect attack, a cool-down, then benign navigation.
func detectionThresholdTrial(th time.Duration, seed int64) (ThresholdOutcome, error) {
	var out ThresholdOutcome
	dev, err := device.Boot(device.Profile{Name: "nexus5", Vendor: "lge", Seed: seed})
	if err != nil {
		return out, err
	}
	if _, err := installer.Deploy(dev, installer.GooglePlay(), nil); err != nil {
		return out, err
	}
	if _, err := dev.PMS.InstallFromParsed(apk.Build(apk.Manifest{
		Package: "com.facebook.katana", VersionCode: 1, Label: "Facebook",
	}, nil, sig.NewKey("facebook"))); err != nil {
		return out, err
	}
	dev.AMS.RegisterActivity("com.facebook.katana", "Feed", true, "", func(intents.Intent) string { return "feed" })
	dev.Run()
	dev.AMS.Firewall().EnableDetection(true)
	dev.AMS.Firewall().SetThreshold(th)

	mal, err := attack.DeployMalware(dev, "com.fun.game")
	if err != nil {
		return out, err
	}
	red := attack.NewRedirect(mal, attack.RedirectConfig{
		VictimPkg: "com.facebook.katana", StorePkg: "com.android.vending",
		StoreActivity: installer.ActivityAppDetails, LookalikeAppID: "com.faceb00k.orca",
	})
	if err := red.Launch(); err != nil {
		return out, err
	}
	_ = dev.AMS.StartActivity(device.SystemSender, intents.Intent{TargetPkg: "com.facebook.katana", Component: "Feed"})
	dev.Sched.RunUntil(dev.Sched.Now() + 200*time.Millisecond)
	_ = dev.AMS.StartActivity("com.facebook.katana", intents.Intent{
		TargetPkg: "com.android.vending", Component: installer.ActivityAppDetails,
		Extras: map[string]string{"appId": "com.facebook.orca"},
	})
	dev.Sched.RunUntil(dev.Sched.Now() + time.Second)
	red.Stop()
	attackAlerts := len(dev.AMS.Firewall().Alerts())
	dev.AMS.Firewall().ResetAlerts()
	// Cool down past the threshold so the attack-phase IR records
	// cannot pair with the first benign Intent.
	dev.Sched.RunUntil(dev.Sched.Now() + th + time.Second)

	// Benign phase: the user hops between apps, each opening the
	// store page for a different app at human pace (1.5–4 s apart).
	benignApps := []string{"com.facebook.katana", "com.spotify.music", "com.netflix.mediaclient"}
	for _, pkg := range benignApps[1:] {
		if _, err := dev.PMS.InstallFromParsed(apk.Build(apk.Manifest{
			Package: pkg, VersionCode: 1, Label: pkg,
		}, nil, sig.NewKey(pkg))); err != nil {
			return out, err
		}
	}
	dev.Run()
	sends := 0
	for round := 0; round < 8; round++ {
		pkg := benignApps[round%len(benignApps)]
		_ = dev.AMS.StartActivity(pkg, intents.Intent{
			TargetPkg: "com.android.vending", Component: installer.ActivityAppDetails,
			Extras: map[string]string{"appId": fmt.Sprintf("com.suggested.app%d", round)},
		})
		sends++
		pace := dev.Sched.Uniform(1500*time.Millisecond, 4*time.Second)
		dev.Sched.RunUntil(dev.Sched.Now() + pace)
	}
	out = ThresholdOutcome{
		Threshold:      th,
		AttackDetected: attackAlerts > 0,
		FalsePositives: len(dev.AMS.Firewall().Alerts()),
		BenignSends:    sends,
	}
	return out, nil
}

// SweepTable renders a sweep as a table.
func SweepTable(id, title, paramName string, points []SweepPoint) Table {
	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{paramName, "Hijack success rate", "Trials"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.Param.String(), pct(p.SuccessRate), fmt.Sprintf("%d", p.Trials),
		})
	}
	return t
}
