// Command gia-sweep runs the ablation sweeps (DESIGN.md X1–X4): hijack
// success vs attacker reaction latency, wait-and-see delay sensitivity, the
// Download Manager recheck-gap exposure and the IntentFirewall threshold
// trade-off.
//
// Usage:
//
//	gia-sweep [-trials N] [-seed N] [-workers N]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// -cpuprofile/-memprofile write pprof profiles of the sweep; CPU samples
// carry a "par.worker" label so profiles split by pool worker.
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"github.com/ghost-installer/gia"
	"github.com/ghost-installer/gia/cmd/internal/cli"
)

func main() {
	trials := flag.Int("trials", 10, "trials per sweep point")
	seed := flag.Int64("seed", 1, "sweep seed")
	workers := flag.Int("workers", runtime.NumCPU(), "worker pool size for the sweep grids (results are identical for any value)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path")
	flag.Parse()
	stopProfiles := cli.Profile(*cpuprofile, *memprofile)
	gia.InstrumentWorkerPool(nil, nil, *cpuprofile != "")
	if err := run(*trials, *seed, *workers); err != nil {
		log.Fatal(err)
	}
	stopProfiles()
}

func printPoints(title, param string, points []gia.SweepPoint) {
	fmt.Println(title)
	fmt.Printf("  %-12s  %s\n", param, "hijack success")
	for _, p := range points {
		fmt.Printf("  %-12v  %5.1f%%  (%d trials)\n", p.Param, 100*p.SuccessRate, p.Trials)
	}
	fmt.Println()
}

func run(trials int, seed int64, workers int) error {
	latencies := []time.Duration{
		5 * time.Millisecond, 50 * time.Millisecond, 120 * time.Millisecond,
		160 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond,
	}
	points, err := gia.ReactionLatencySweep(gia.AmazonProfile(), latencies, trials, seed, workers)
	if err != nil {
		return err
	}
	printPoints("X1: attacker reaction latency vs the Amazon check-to-install gap (120-200 ms)", "latency", points)

	delays := []time.Duration{
		100 * time.Millisecond, 500 * time.Millisecond,
		2 * time.Second, 2200 * time.Millisecond, 10 * time.Second,
	}
	points, err = gia.WaitDelaySweep(gia.DTIgniteProfile(), delays, trials, seed+100, workers)
	if err != nil {
		return err
	}
	printPoints("X2: wait-and-see delay vs DTIgnite (check ends ~360 ms, install ~2.1-2.5 s)", "delay", points)

	gaps := []time.Duration{
		2 * time.Millisecond, 500 * time.Microsecond,
		150 * time.Microsecond, 50 * time.Microsecond,
	}
	points, err = gia.DMGapSweep(gaps, 50, trials, seed+200, workers)
	if err != nil {
		return err
	}
	printPoints("X3: DM recheck gap vs the 300 µs link flipper (50 tries/attempt)", "gap", points)

	thresholds := []time.Duration{time.Millisecond, 100 * time.Millisecond, time.Second, 30 * time.Second}
	outcomes, err := gia.DetectionThresholdSweep(thresholds, seed+300, workers)
	if err != nil {
		return err
	}
	fmt.Println("X4: IntentFirewall detection threshold trade-off")
	fmt.Printf("  %-12s  %-16s  %s\n", "threshold", "attack detected", "benign false positives")
	for _, o := range outcomes {
		fmt.Printf("  %-12v  %-16v  %d of %d sends\n", o.Threshold, o.AttackDetected, o.FalsePositives, o.BenignSends)
	}
	return nil
}
