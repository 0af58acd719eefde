// Command gia-chaos drives the schedule-exploration and fault-injection
// harness over the TOCTOU installation-hijack race.
//
// Usage:
//
//	gia-chaos -mode orders  [-store amazon] [-strategy wait-and-see] [-seed N]
//	          [-grid 10ms] [-payload-kb 900] [-max 2000] [-workers N]
//	    enumerate every same-instant event ordering (deadlines quantized
//	    onto -grid) and check the hijack invariant on each
//
//	gia-chaos -mode sweep [-schedules 1000] [-jitter 5ms] [-patched] ...
//	    sweep a seed × jitter grid of schedules
//
//	gia-chaos -mode fault [-store dtignite] [-fault truncate-download] ...
//	    inject a named fault and minimize the resulting violation to a
//	    replay token
//
//	gia-chaos -mode replay -token gia1:SEED:JITTER:CHOICES ...
//	    re-execute one schedule from its token (pass the same world flags
//	    that produced it)
//
//	gia-chaos -mode table [-seed N] [-workers N]
//	    run the full exploration study and print the summary table
//
// The mode (and, for replay, the token) may also be passed positionally:
//
//	gia-chaos -trace=out.json replay gia1:SEED:JITTER:CHOICES
//
// The invariant checked is "the hijack lands" — or, with -patched, "the
// hijack never lands through the FUSE patch".
//
// Observability: -trace=FILE exports a deterministic virtual-time trace of
// every explored run — one track per schedule token carrying the full
// device timeline (fs, packages, firewall, AIT steps) — as Chrome
// trace-event JSON (open in chrome://tracing or Perfetto), or JSONL when
// FILE ends in .jsonl. -metrics prints a counter snapshot (schedules
// explored, violations, scheduler and installer counters) to stderr. Both
// are byte-identical for any -workers value.
//
// Flight recorder: -dump-dir=DIR writes the last -flight-recorder-depth
// events of every violating run into DIR as Chrome-trace JSON + JSONL,
// named by the run's replay token (works with or without -trace;
// -flight-recorder-depth also bounds the -trace tracks to rings). Modes
// that find violations (orders, sweep, fault, replay) exit 1 — after
// flushing every telemetry output.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"github.com/ghost-installer/gia"
	"github.com/ghost-installer/gia/cmd/internal/cli"
)

type options struct {
	store     string
	strategy  string
	seed      int64
	workers   int
	patched   bool
	payloadKB int
	grid      time.Duration
	max       int
	schedules int
	jitter    time.Duration
	faultName string
	token     string
	tracePath string
	metrics   bool
	dumpDir   string
	ringDepth int

	reg *gia.ObsRegistry
	tr  *gia.ObsTrace
}

// errViolation marks a run that found (or reproduced) a violation: exit
// status 1, but only after the trace and metrics outputs are flushed.
var errViolation = errors.New("invariant violated")

// violationErr maps an exploration result onto the exit contract replay
// mode already follows: violations exit 1 once telemetry is flushed.
func violationErr(res *gia.ChaosResult) error {
	if res.Violations > 0 {
		return errViolation
	}
	return nil
}

func main() {
	var o options
	mode := flag.String("mode", "table", "orders, sweep, fault, replay or table")
	flag.StringVar(&o.store, "store", "amazon", "store profile under attack")
	flag.StringVar(&o.strategy, "strategy", "file-observer", "attack strategy: file-observer or wait-and-see")
	flag.Int64Var(&o.seed, "seed", 1, "base scenario seed")
	flag.IntVar(&o.workers, "workers", 0, "worker pool size (0 = NumCPU)")
	flag.BoolVar(&o.patched, "patched", false, "arm the FUSE patch and invert the invariant")
	flag.IntVar(&o.payloadKB, "payload-kb", 0, "target APK payload in KiB (0 = minimal)")
	flag.DurationVar(&o.grid, "grid", 10*time.Millisecond, "orders: quantization grid creating same-instant ties")
	flag.IntVar(&o.max, "max", 2000, "orders: cap on explored schedules")
	flag.IntVar(&o.schedules, "schedules", 1000, "sweep: number of grid cells (seeds x 4 jitters)")
	flag.DurationVar(&o.jitter, "jitter", 5*time.Millisecond, "sweep: largest event-jitter bound")
	flag.StringVar(&o.faultName, "fault", "truncate-download", "fault: truncate-download, fail-rename, drop-intent")
	flag.StringVar(&o.token, "token", "", "replay: schedule token to re-execute")
	flag.StringVar(&o.tracePath, "trace", "", "export a Chrome trace (or JSONL if the path ends in .jsonl) of every explored run")
	flag.BoolVar(&o.metrics, "metrics", false, "print a metrics snapshot to stderr")
	flag.StringVar(&o.dumpDir, "dump-dir", "", "dump each violating run's last events here as Chrome trace + JSONL, named by replay token")
	flag.IntVar(&o.ringDepth, "flight-recorder-depth", 0, "bound each run's trace track to a ring of this many events (0 = unbounded trace / default dump depth)")
	flag.Parse()
	if flag.NArg() > 0 {
		*mode = flag.Arg(0)
	}
	if flag.NArg() > 1 {
		o.token = flag.Arg(1)
	}
	if o.tracePath != "" || o.dumpDir != "" {
		// -dump-dir without -trace still needs run tracks to dump: keep an
		// internal flight recorder (ring mode, so memory stays bounded over
		// arbitrarily long sweeps) and simply never export it whole.
		o.tr = gia.NewObsTrace()
		// Virtual-time only: wall spans depend on worker scheduling and
		// would break byte-for-byte replay comparisons.
		o.tr.SetWallClock(nil)
		depth := o.ringDepth
		if depth <= 0 && o.tracePath == "" {
			depth = gia.ChaosDefaultDumpDepth
		}
		o.tr.SetRingDepth(depth)
	}
	if o.metrics {
		o.reg = gia.NewObsRegistry()
	}
	err := run(*mode, o)
	// The telemetry is flushed even when the verdict exits nonzero.
	if werr := cli.WriteTelemetry(o.tr, o.tracePath, o.reg); werr != nil {
		log.Fatal(werr)
	}
	if errors.Is(err, errViolation) {
		os.Exit(1)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// instrument attaches the session's registry, trace and flight-recorder
// dump sink to an explorer.
func (o options) instrument(ex *gia.ChaosExplorer) *gia.ChaosExplorer {
	ex.Metrics = o.reg
	ex.Trace = o.tr
	ex.DumpDir = o.dumpDir
	ex.DumpDepth = o.ringDepth
	return ex
}

// invariant builds the RunFunc checked on every explored schedule.
func invariant(o options) (func(r *gia.ChaosRun) error, error) {
	prof, err := gia.StoreProfile(o.store)
	if err != nil {
		return nil, err
	}
	strategy, err := gia.ParseAttackStrategy(o.strategy)
	if err != nil {
		return nil, err
	}
	var payload []byte
	if o.payloadKB > 0 {
		payload = bytes.Repeat([]byte("x"), o.payloadKB<<10)
	}
	patched := o.patched
	return func(r *gia.ChaosRun) error {
		var (
			s   *gia.Scenario
			err error
		)
		if payload == nil {
			s, err = gia.NewScenario(prof, r.Seed())
		} else {
			s, err = gia.NewScenarioPayload(prof, r.Seed(), payload)
		}
		if err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
		if patched {
			gia.EnableFUSEPatch(s.Dev, true)
		}
		gia.InstrumentScenario(s, r)
		if o.reg != nil {
			// Shared atomic counters: totals are worker-count independent.
			gia.InstrumentDevice(s.Dev, o.reg, nil)
			s.Store.Instrument(o.reg, nil)
		}
		var timeline *gia.ObsTrack
		if o.tr != nil {
			var stop func()
			if timeline, stop, err = gia.NewTimeline(s.Dev, prof.StagingDir); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			defer stop()
		}
		res, _, err := s.Hijack(gia.AttackConfigForStore(prof, strategy))
		if err != nil {
			return fmt.Errorf("launch: %w", err)
		}
		if timeline != nil {
			// The run's trace lane is the merged device timeline — the same
			// event stream the golden TOCTOU timeline pins.
			res.Record(timeline)
			for _, ev := range timeline.Sorted().Events() {
				r.Track().InstantAt(ev.Start, ev.Name, ev.Detail)
			}
		}
		if patched {
			if res.Hijacked {
				return fmt.Errorf("hijack landed through the FUSE patch")
			}
			return nil
		}
		if !res.Hijacked {
			return fmt.Errorf("hijack missed (attempts=%d, err=%v)", res.Attempts, res.Err)
		}
		return nil
	}, nil
}

func faultPlan(name string, seed int64) (*gia.FaultPlan, error) {
	switch strings.ToLower(name) {
	case "truncate-download":
		// Every transfer past its first chunk silently truncates: hash
		// verification starves and the AIT fails. Needs a DM-backed store
		// (-store dtignite) and a multi-chunk payload (-payload-kb 200).
		return gia.NewFaultPlan(seed, gia.FaultRule{
			Site: gia.FaultSiteDMChunk, Kind: gia.FaultTruncate, Skip: 1,
		}), nil
	case "fail-rename":
		return gia.NewFaultPlan(seed, gia.FaultRule{
			Site: gia.FaultSiteVFSRename, Kind: gia.FaultError, Count: 1,
		}), nil
	case "drop-intent":
		return gia.NewFaultPlan(seed, gia.FaultRule{
			Site: gia.FaultSiteIntentDeliver, Kind: gia.FaultDrop, Count: 1,
		}), nil
	default:
		return nil, fmt.Errorf("unknown fault %q (want truncate-download, fail-rename or drop-intent)", name)
	}
}

func report(kind string, res *gia.ChaosResult, ex *gia.ChaosExplorer, fn func(r *gia.ChaosRun) error) {
	capped := ""
	if res.Truncated {
		capped = " (capped)"
	}
	fmt.Printf("%s: %d schedules%s, %d violations, widest tie %d\n",
		kind, res.Explored, capped, res.Violations, res.MaxBranch)
	if res.First == nil {
		fmt.Println("invariant held on every explored schedule")
		return
	}
	min := ex.Minimize(res.First.Schedule, fn)
	fmt.Printf("first violation: %v\n", res.First.Err)
	fmt.Printf("minimized replay token: %s\n", min.Token())
	if _, err := ex.Replay(min.Token(), fn); err != nil {
		fmt.Printf("replay reproduces: %v\n", err)
	} else {
		fmt.Println("replay does NOT reproduce (schedule-external nondeterminism?)")
	}
}

func run(mode string, o options) error {
	switch strings.ToLower(mode) {
	case "table":
		tbl, err := gia.ChaosExplorationTable(o.seed, o.workers)
		if err != nil {
			return err
		}
		fmt.Print(tbl.Render())
		return nil
	case "orders":
		fn, err := invariant(o)
		if err != nil {
			return err
		}
		ex := o.instrument(&gia.ChaosExplorer{Workers: o.workers, MaxSchedules: o.max})
		if o.grid > 0 {
			ex.Plan = gia.NewFaultPlan(0, gia.FaultRule{
				Site: gia.FaultSiteSimEvent, Kind: gia.FaultDelay, SnapTo: o.grid,
			})
		}
		res := ex.ExploreOrders(gia.ChaosSchedule{Seed: o.seed}, fn)
		report("orderings", res, ex, fn)
		return violationErr(res)
	case "sweep":
		fn, err := invariant(o)
		if err != nil {
			return err
		}
		jitters := []time.Duration{0, o.jitter / 4, o.jitter / 2, o.jitter}
		nseeds := o.schedules / len(jitters)
		if nseeds < 1 {
			nseeds = 1
		}
		seeds := make([]int64, nseeds)
		for i := range seeds {
			seeds[i] = o.seed + int64(i)
		}
		ex := o.instrument(&gia.ChaosExplorer{Workers: o.workers})
		res := ex.Sweep(seeds, jitters, fn)
		report("sweep", res, ex, fn)
		return violationErr(res)
	case "fault":
		fn, err := invariant(o)
		if err != nil {
			return err
		}
		plan, err := faultPlan(o.faultName, o.seed)
		if err != nil {
			return err
		}
		ex := o.instrument(&gia.ChaosExplorer{Workers: o.workers, Plan: plan})
		res := ex.Sweep([]int64{o.seed}, nil, fn)
		report("fault "+o.faultName, res, ex, fn)
		return violationErr(res)
	case "replay":
		if o.token == "" {
			return fmt.Errorf("replay needs -token")
		}
		fn, err := invariant(o)
		if err != nil {
			return err
		}
		var plan *gia.FaultPlan
		if o.faultName != "" && o.faultName != "none" {
			if plan, err = faultPlan(o.faultName, o.seed); err != nil {
				return err
			}
		}
		ex := o.instrument(&gia.ChaosExplorer{Workers: 1, Plan: plan})
		sched, err := ex.Replay(o.token, fn)
		if err != nil {
			fmt.Printf("schedule %s violates: %v\n", sched.Token(), err)
			return errViolation
		}
		fmt.Printf("schedule %s: invariant holds\n", sched.Token())
		return nil
	default:
		return fmt.Errorf("unknown mode %q (want orders, sweep, fault, replay or table)", mode)
	}
}
