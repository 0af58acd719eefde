package experiment

import (
	"bytes"
	"fmt"
	"time"

	"github.com/ghost-installer/gia/internal/arena"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/fault"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/obs"
)

// Instrument attaches a chaos run to the scenario: the schedule (arbiter +
// choice replay) is imposed on the scheduler and the run's fault plan is
// installed on every substrate with injection sites. Call it right after
// NewScenario, before driving the clock.
func (s *Scenario) Instrument(r *chaos.Run) {
	r.Attach(s.Dev.Sched, s.Dev.FS, s.Dev.DM, s.Dev.AMS, s.Dev.Fuse)
}

// ArenaWorkerState is the chaos.Explorer.WorkerState factory for studies
// whose RunFuncs build scenarios through aitRun: each pool worker gets a
// private device arena over the standard scenario profile, so device.Boot
// is a one-time cost per worker and every subsequent schedule resets the
// pooled device in place. A non-nil registry wires the arena's hit/miss/
// reset counters and reset-latency histogram (shared across workers).
func ArenaWorkerState(reg *obs.Registry) func() any {
	var met arena.Metrics
	if reg != nil {
		met = arena.Instrument(reg)
	}
	return func() any {
		a := arena.New(ScenarioDeviceProfile(0))
		a.SetMetrics(met)
		return a
	}
}

// runDevice yields the device a chaos run builds its world on: acquired
// from the pool worker's arena when the explorer carries one (see
// ArenaWorkerState), booted fresh otherwise. release returns an arena
// device to its pool and is a no-op for booted ones.
func runDevice(r *chaos.Run) (dev *device.Device, release func(), err error) {
	if ar, ok := r.State().(*arena.Arena); ok {
		dev, err := ar.Acquire(r.Seed())
		if err != nil {
			return nil, nil, err
		}
		return dev, func() { ar.Release(dev) }, nil
	}
	dev, err = device.Boot(ScenarioDeviceProfile(r.Seed()))
	if err != nil {
		return nil, nil, err
	}
	return dev, func() {}, nil
}

// aitRun deploys fx on the run's device, launches a TOCTOU attack with the
// given strategy, drives the AIT and reports the result. patched enables
// the Section V-C FUSE defense.
func aitRun(fx *fixture, strategy attack.Strategy, patched bool, r *chaos.Run) (installer.Result, error) {
	dev, release, err := runDevice(r)
	if err != nil {
		return installer.Result{}, fmt.Errorf("device: %w", err)
	}
	defer release()
	s, err := newScenario(dev, fx)
	if err != nil {
		return installer.Result{}, fmt.Errorf("scenario: %w", err)
	}
	if patched {
		s.Dev.Fuse.SetPatched(true)
	}
	s.Instrument(r)
	// The run's trace lane (when the explorer carries a Trace) gets the
	// installer's per-step AIT instants and outcome spans, so a violation
	// dump shows the transaction steps leading up to the failure.
	if k := r.Track(); k != nil {
		s.Store.Instrument(nil, k)
	}
	res, _, err := s.Hijack(attack.ConfigForStore(fx.prof, strategy))
	if err != nil {
		return installer.Result{}, fmt.Errorf("launch: %w", err)
	}
	return res, nil
}

// HijackRunFunc is the canonical chaos invariant of the exploration bench:
// one complete AIT hijack scenario per schedule, asserting the hijack
// lands. Devices come from the worker arena when the explorer carries one.
// The scenario fixture is resolved here, once, through fixtureFor, so a
// caller that makes a RunFunc per request (gia-serve's replay) does not
// rebuild it each time; every schedule shares it.
func HijackRunFunc(prof installer.Profile, strategy attack.Strategy) chaos.RunFunc {
	return hijackRunFunc(fixtureFor(prof, defaultTarget()), strategy)
}

// HijackPayloadRunFunc is HijackRunFunc with a caller-chosen classes.dex
// payload; a payload larger than one transfer chunk (64 KiB) makes the
// download multi-chunk. The target and its fixture are built here, once,
// and no schedule reads payload again.
func HijackPayloadRunFunc(prof installer.Profile, strategy attack.Strategy, payload []byte) chaos.RunFunc {
	return hijackRunFunc(newFixture(prof, buildTarget(payload)), strategy)
}

func hijackRunFunc(fx *fixture, strategy attack.Strategy) chaos.RunFunc {
	return func(r *chaos.Run) error {
		res, err := aitRun(fx, strategy, false, r)
		if err != nil {
			return err
		}
		if !res.Hijacked {
			return fmt.Errorf("hijack missed (attempts=%d, err=%v)", res.Attempts, res.Err)
		}
		return nil
	}
}

// ExplorationRow is one row of the chaos study.
type ExplorationRow struct {
	Name      string
	Invariant string
	Explored  int
	Violated  int
	MaxBranch int
	Truncated bool
	// Token is the minimized replay token of the first violation ("-" when
	// the invariant held everywhere).
	Token string
	// Replayed reports whether replaying Token reproduced the violation.
	Replayed bool
}

// ExplorationStudy drives the chaos harness over the Section III-B TOCTOU
// race four ways:
//
//  1. exhaustive enumeration of same-instant event orderings: deadlines are
//     quantized onto a 10ms grid so the wait-and-see poller genuinely ties
//     with the download's chunk writes, and every permutation of every tie
//     is explored — the hijack must land on all of them;
//  2. a seed × jitter sweep (1000 schedules) asserting the FileObserver
//     hijack always lands against the stock (legacy) store;
//  3. the same sweep with the Section V-C FUSE patch asserting it never
//     does;
//  4. a fault-injection run truncating every download after its first
//     chunk (the transfer still reports success), which starves hash
//     verification and flips the hijack outcome; the violating schedule is
//     minimized to a token and replayed.
func ExplorationStudy(seed int64, workers int) ([]ExplorationRow, error) {
	var rows []ExplorationRow

	// Row 1: exhaustive orderings. The 900 KiB payload makes the download
	// long enough for the wait-and-see poller to contend with ~14 chunk
	// writes; 10ms quantization turns that contention into same-instant
	// ties (128 schedules for the default seed).
	wsHijacks := HijackPayloadRunFunc(installer.Amazon(), attack.StrategyWaitAndSee, bytes.Repeat([]byte("x"), 900<<10))
	exOrd := &chaos.Explorer{
		Workers: workers, MaxSchedules: 2000,
		Plan:        chaos.Quantize(10*time.Millisecond, 0, 0),
		WorkerState: ArenaWorkerState(nil),
	}
	res := exOrd.ExploreOrders(chaos.Schedule{Seed: seed}, wsHijacks)
	rows = append(rows, explorationRow("exhaustive orderings (wait-and-see)", "hijack lands", exOrd, res, wsHijacks))

	// Rows 2-3: seed × jitter grids, 250 seeds × 4 jitters = 1000
	// schedules each. Jitter stays well under the verify→install gap so
	// the invariant is genuinely schedule-independent.
	seeds := make([]int64, 250)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	jitters := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond}
	ex := &chaos.Explorer{Workers: workers, WorkerState: ArenaWorkerState(nil)}

	foHijacks := HijackRunFunc(installer.Amazon(), attack.StrategyFileObserver)
	res = ex.Sweep(seeds, jitters, foHijacks)
	rows = append(rows, explorationRow("seed x jitter sweep (legacy)", "hijack lands", ex, res, foHijacks))

	patchedFx := fixtureFor(installer.Amazon(), defaultTarget())
	patchBlocks := func(r *chaos.Run) error {
		res, err := aitRun(patchedFx, attack.StrategyFileObserver, true, r)
		if err != nil {
			return err
		}
		if res.Hijacked {
			return fmt.Errorf("hijack landed through the FUSE patch")
		}
		return nil
	}
	res = ex.Sweep(seeds, jitters, patchBlocks)
	rows = append(rows, explorationRow("seed x jitter sweep (FUSE patch)", "hijack never lands", ex, res, patchBlocks))

	// Row 4: fault injection through the Download Manager (DTIgnite is the
	// DM-backed store). Every download past its first 64 KiB chunk is
	// silently truncated, so hash verification fails, the redownload
	// budget drains, and the hijack misses — deliberately violating the
	// row's invariant. The harness minimizes that to a replayable token.
	dtiHijacks := HijackPayloadRunFunc(installer.DTIgnite(), attack.StrategyFileObserver, bytes.Repeat([]byte("x"), 200<<10))
	exFault := &chaos.Explorer{
		Workers: workers,
		Plan: chaos.NewFaultPlan(seed, chaos.Rule{
			Site: fault.SiteDMChunk, Kind: fault.KindTruncate, Skip: 1,
		}),
		WorkerState: ArenaWorkerState(nil),
	}
	fres := exFault.Sweep([]int64{seed}, nil, dtiHijacks)
	rows = append(rows, explorationRow("truncated download fault", "hijack lands", exFault, fres, dtiHijacks))
	return rows, nil
}

func explorationRow(name, invariant string, ex *chaos.Explorer, res *chaos.Result, fn chaos.RunFunc) ExplorationRow {
	row := ExplorationRow{
		Name:      name,
		Invariant: invariant,
		Explored:  res.Explored,
		Violated:  res.Violations,
		MaxBranch: res.MaxBranch,
		Truncated: res.Truncated,
		Token:     "-",
	}
	if res.First != nil {
		min := ex.Minimize(res.First.Schedule, fn)
		row.Token = min.Token()
		_, err := ex.Replay(row.Token, fn)
		row.Replayed = err != nil
	}
	return row
}

// ChaosTable renders the exploration study.
func ChaosTable(seed int64, workers int) (Table, error) {
	rows, err := ExplorationStudy(seed, workers)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Chaos Study",
		Title:  "Schedule exploration and fault injection over the TOCTOU race",
		Header: []string{"Exploration", "Invariant", "Schedules", "Violations", "Max tie", "Replay token"},
	}
	for _, r := range rows {
		sched := fmt.Sprintf("%d", r.Explored)
		if r.Truncated {
			sched += " (capped)"
		}
		tok := r.Token
		if r.Token != "-" {
			if r.Replayed {
				tok += " (replays)"
			} else {
				tok += " (STALE)"
			}
		}
		t.Rows = append(t.Rows, []string{
			r.Name, r.Invariant, sched,
			fmt.Sprintf("%d", r.Violated),
			fmt.Sprintf("%d", r.MaxBranch),
			tok,
		})
	}
	t.Notes = append(t.Notes,
		"orderings row quantizes event deadlines onto a 10ms grid and walks every permutation of every same-instant tie (arbiter choice tree)",
		"sweep rows impose 250 seeds x 4 jitter bounds (0-5ms) on the full AIT+attack world",
		"fault row silently truncates DM transfers after the first chunk — the hijack misses and the schedule minimizes to the token shown")
	return t, nil
}
