package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ghost-installer/gia/internal/arena"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/experiment"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/obs"
)

// exploreWorkers matches the 2-vCPU VM the bounds were set on.
const exploreWorkers = 2

// The sweep's jitters stay far below the verify→install gap, so the
// hijack lands on every schedule and no same-instant ties form.
var sweepJitters = []time.Duration{0, time.Millisecond}

// The orders workload is ExplorationStudy's exhaustive row: a 900 KiB
// payload makes the download ~14 chunks, and quantizing deadlines onto a
// 10 ms grid turns the wait-and-see poller's contention with the chunk
// writes into same-instant ties.
const (
	ordersPayloadBytes = 900 << 10
	ordersMaxSchedules = 2000
	ordersGrid         = 10 * time.Millisecond
)

var ordersPayload = bytes.Repeat([]byte("x"), ordersPayloadBytes)

// exploreCase is one explorer workload: how to build its explorer, the
// RunFunc its untraced run checks and the one its traced run checks. The
// sweep runs the program's experiment.HijackRunFunc. The orders workload
// needs a 900 KiB payload, and no exported RunFunc takes one (the
// experiment package's payload variant is private to ExplorationStudy), so
// both its runs use the benchmark's hijackRun; checkOrdersAgainstStudy
// ties that to the program's RunFunc.
type exploreCase struct {
	sweep    bool
	explorer func(state func() any) *chaos.Explorer
	untraced chaos.RunFunc
	traced   chaos.RunFunc
}

func exploreCaseFor(sweep bool) exploreCase {
	if sweep {
		return exploreCase{
			sweep: true,
			explorer: func(state func() any) *chaos.Explorer {
				return &chaos.Explorer{Workers: exploreWorkers, WorkerState: state}
			},
			untraced: experiment.HijackRunFunc(installer.Amazon(), attack.StrategyFileObserver),
			traced:   hijackRun(installer.Amazon(), attack.StrategyFileObserver, []byte("genuine")),
		}
	}
	fn := hijackRun(installer.Amazon(), attack.StrategyWaitAndSee, ordersPayload)
	return exploreCase{
		explorer: func(state func() any) *chaos.Explorer {
			return &chaos.Explorer{
				Workers: exploreWorkers, MaxSchedules: ordersMaxSchedules,
				Plan:        chaos.Quantize(ordersGrid, 0, 0),
				WorkerState: state,
			}
		},
		untraced: fn,
		traced:   fn,
	}
}

// unit runs unit k of the workload: Sweep chunk k (sweepChunk seeds × the
// jitters) or ExploreOrders from seed+k.
func (c exploreCase) unit(cfg config, ex *chaos.Explorer, k int, fn chaos.RunFunc) *chaos.Result {
	if !c.sweep {
		return ex.ExploreOrders(chaos.Schedule{Seed: cfg.seed + int64(k)}, fn)
	}
	seeds := make([]int64, cfg.sweepChunk)
	for i := range seeds {
		seeds[i] = cfg.seed + int64(k*cfg.sweepChunk+i)
	}
	return ex.Sweep(seeds, sweepJitters, fn)
}

// checkUnit checks unit k's result: no violation, nothing truncated, and
// the pinned counts where the seed has them.
func (c exploreCase) checkUnit(cfg config, res *result, k int, r *chaos.Result) {
	if r.Violations > 0 {
		res.fail(r.Violations, "unit %d: %d violations, first %v: %v", k, r.Violations, r.First.Schedule, r.First.Err)
	}
	res.check(!r.Truncated, "unit %d truncated after %d schedules", k, r.Explored)
	if c.sweep {
		res.check(r.Explored == cfg.sweepChunk*len(sweepJitters), "sweep chunk %d explored %d schedules", k, r.Explored)
		if e := cfg.expect; e != nil {
			res.check(r.MaxBranch == e.SweepMaxBranch, "sweep chunk %d max branch %d, pinned %d", k, r.MaxBranch, e.SweepMaxBranch)
		}
		return
	}
	if e := cfg.expect; e != nil && k < len(e.OrdersExplored) {
		res.check(r.Explored == e.OrdersExplored[k], "orders seed %d explored %d schedules, pinned %d",
			cfg.seed+int64(k), r.Explored, e.OrdersExplored[k])
	}
}

// runExplore is the explore-sweep and explore-orders workloads: units of
// work until the window is spent, each schedule timed around its RunFunc.
func runExplore(cfg config, sweep bool) (*result, error) {
	c := exploreCaseFor(sweep)
	if cfg.trace {
		return traceExplore(cfg, c)
	}
	res := &result{}
	var lat workerLatencies
	timed := func(r *chaos.Run) error {
		t := time.Now()
		err := c.untraced(r)
		lat.record(r.State(), int64(time.Since(t)))
		return err
	}

	setup := make([]float64, cfg.setupReps)
	for i := range setup {
		t := time.Now()
		err := runRole(roleExploreSetup, cfg)
		setup[i] = time.Since(t).Seconds()
		res.check(err == nil, "set-up: %v", err)
	}
	ex := c.explorer(lat.register(experiment.ArenaWorkerState(nil)))

	units := 0
	var first *chaos.Result
	u0 := readUsage()
	mem := sampleMem(ownMem)
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < cfg.window; k++ {
		r := c.unit(cfg, ex, k, timed)
		c.checkUnit(cfg, res, k, r)
		units += r.Explored
		if k == 0 {
			first = r
		}
	}
	wall := time.Since(start)
	memMB := mem()
	u := readUsage().since(u0)
	res.attempted = int64(units)
	res.note("%d schedules in %.2fs", units, wall.Seconds())
	res.addEndToEnd(setup, float64(units)/wall.Seconds(), ratio(us(u.CPUNs), float64(units)), memMB, lat.all())
	if !sweep {
		checkOrdersAgainstStudy(cfg, res, first)
	}
	return res, nil
}

// checkOrdersAgainstStudy ties the orders workload's RunFunc, which the
// benchmark owns, to the program's: ExplorationStudy's exhaustive row runs
// the same exploration of the run's first seed through the experiment
// package's own RunFunc, and must explore the same schedules with the same
// widest tie and no violation.
func checkOrdersAgainstStudy(cfg config, res *result, first *chaos.Result) {
	rows, err := experiment.ExplorationStudy(cfg.seed, exploreWorkers)
	if !res.check(err == nil && len(rows) > 0, "ExplorationStudy(%d): %d rows, %v", cfg.seed, len(rows), err) {
		return
	}
	row := rows[0]
	res.check(row.Explored == first.Explored && row.MaxBranch == first.MaxBranch && row.Truncated == first.Truncated && row.Violated == 0,
		"seed %d: ExplorationStudy's orderings row explored %d (max tie %d, truncated %v, %d violations), the benchmark %d (max tie %d, truncated %v)",
		cfg.seed, row.Explored, row.MaxBranch, row.Truncated, row.Violated, first.Explored, first.MaxBranch, first.Truncated)
}

// workerLatencies keeps each explorer worker's schedule latencies (ns, in
// completion order) without a lock: a worker's state is used by that worker
// alone, so each slice has one writer.
type workerLatencies struct {
	n       atomic.Int32
	workers [exploreWorkers]atomic.Pointer[workerLatency]
}

type workerLatency struct {
	state any
	lat   []int64
}

// register wraps a WorkerState factory so every state it builds gets a
// latency slice.
func (w *workerLatencies) register(state func() any) func() any {
	return func() any {
		st := state()
		w.workers[w.n.Add(1)-1].Store(&workerLatency{state: st})
		return st
	}
}

func (w *workerLatencies) record(state any, ns int64) {
	for i := range w.workers {
		if l := w.workers[i].Load(); l != nil && l.state == state {
			l.lat = append(l.lat, ns)
			return
		}
	}
}

// all is every worker's latencies, worker after worker.
func (w *workerLatencies) all() []int64 {
	var out []int64
	for i := range w.workers {
		if l := w.workers[i].Load(); l != nil {
			out = append(out, l.lat...)
		}
	}
	return out
}

// exploreSetup is an explorer workload's set-up, run as a process of its
// own so it includes starting the program: build the workload's explorer
// and check its first schedule, which boots a worker's arena and builds
// the published target.
func exploreSetup(cfg config) error {
	c := exploreCaseFor(cfg.workload == "explore-sweep")
	ex := c.explorer(experiment.ArenaWorkerState(nil))
	_, err := ex.Check(chaos.Schedule{Seed: cfg.seed}, c.untraced)
	return err
}

// worker is the per-worker state of a traced explorer: the worker's device
// arena and its span lane.
type worker struct {
	arena *arena.Arena
	lane  *lane
}

var (
	spSchedule = spanName("chaos.schedule")
	spAcquire  = spanName("arena.acquire")
	spDeploy   = spanName("experiment.deploy")
	spAttach   = spanName("chaos.attach")
	spLaunch   = spanName("attack.launch")
	spRunAIT   = spanName("sim.run_ait")
	spStop     = spanName("attack.stop")
	spRelease  = spanName("arena.release")
)

// exploreStages are the spans of one schedule, in call order.
var exploreStages = []struct {
	span   int
	metric string
}{
	{spAcquire, "arena.acquire_us"},
	{spDeploy, "experiment.deploy_us"},
	{spAttach, "chaos.attach_us"},
	{spLaunch, "attack.launch_us"},
	{spRunAIT, "sim.run_ait_us"},
	{spStop, "attack.stop_us"},
	{spRelease, "arena.release_us"},
}

// hijackRun is the experiment package's hijack RunFunc rebuilt from its
// exported calls: acquire a device from the worker's arena, deploy the
// store scenario with payload, attach the run, launch the TOCTOU attack
// with strategy, drive the AIT, stop the attack and release the device.
// The hijack must land. On a traced explorer's worker every call is a
// span; on an ArenaWorkerState worker nothing is recorded.
func hijackRun(prof installer.Profile, strategy attack.Strategy, payload []byte) chaos.RunFunc {
	cfg := attack.ConfigForStore(prof, strategy)
	return func(r *chaos.Run) error {
		var ar *arena.Arena
		var ln *lane
		switch st := r.State().(type) {
		case *arena.Arena:
			ar = st
		case *worker:
			ar, ln = st.arena, st.lane
		default:
			return fmt.Errorf("worker state %T has no arena", st)
		}
		req := ln.next()
		root := ln.begin(spSchedule, 0, req)
		defer root.end()

		sp := ln.begin(spAcquire, root.id, req)
		dev, err := ar.Acquire(r.Seed())
		sp.end()
		if err != nil {
			return fmt.Errorf("device: %w", err)
		}
		release := func() {
			sp := ln.begin(spRelease, root.id, req)
			ar.Release(dev)
			sp.end()
		}
		sp = ln.begin(spDeploy, root.id, req)
		s, err := experiment.NewScenarioPayloadOn(dev, prof, payload)
		sp.end()
		if err != nil {
			release()
			return fmt.Errorf("scenario: %w", err)
		}
		sp = ln.begin(spAttach, root.id, req)
		s.Instrument(r)
		sp.end()
		sp = ln.begin(spLaunch, root.id, req)
		atk := attack.NewTOCTOU(s.Mal, cfg, s.Target)
		err = atk.Launch()
		sp.end()
		if err != nil {
			release()
			return fmt.Errorf("launch: %w", err)
		}
		sp = ln.begin(spRunAIT, root.id, req)
		res := s.RunAIT()
		sp.end()
		sp = ln.begin(spStop, root.id, req)
		atk.Stop()
		sp.end()
		release()
		if !res.Hijacked {
			return fmt.Errorf("hijack missed (attempts=%d, err=%v)", res.Attempts, res.Err)
		}
		return nil
	}
}

// sameOutcome reports whether two explorations of one unit agree.
func sameOutcome(a, b *chaos.Result) bool {
	if a.Explored != b.Explored || a.Violations != b.Violations || a.Truncated != b.Truncated ||
		a.MaxBranch != b.MaxBranch || a.PORSkipped != b.PORSkipped || (a.First == nil) != (b.First == nil) {
		return false
	}
	return a.First == nil || a.First.Schedule.Token() == b.First.Schedule.Token()
}

// traceExplore is the traced pass of an explorer workload. Each unit runs
// twice: untraced on an ArenaWorkerState explorer (the reference for the
// tracing overhead and the Go runtime metrics), then with the traced
// RunFunc on an explorer whose workers carry span lanes. Both must reach
// the same outcome. On the sweep that ties hijackRun to HijackRunFunc; on
// the orders workload both runs are hijackRun, so it only shows that
// tracing leaves the outcome alone.
func traceExplore(cfg config, c exploreCase) (*result, error) {
	res := &result{}
	reg := obs.NewRegistry()
	met := arena.Instrument(reg)
	var mu sync.Mutex
	var lanes []*lane
	traced := c.explorer(func() any {
		a := arena.New(experiment.ScenarioDeviceProfile(0))
		a.SetMetrics(met)
		mu.Lock()
		defer mu.Unlock()
		lanes = append(lanes, newLane(len(lanes)+1))
		return &worker{arena: a, lane: lanes[len(lanes)-1]}
	})
	ref := c.explorer(experiment.ArenaWorkerState(nil))

	var (
		refUse            usage
		refWall, trWall   time.Duration
		refUnits, trUnits int
		maxBranch, por    int
	)
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < cfg.window; k++ {
		u0 := readUsage()
		t := time.Now()
		rr := c.unit(cfg, ref, k, c.untraced)
		refWall += time.Since(t)
		refUse.add(readUsage().since(u0))
		refUnits += rr.Explored

		t = time.Now()
		tr := c.unit(cfg, traced, k, c.traced)
		trWall += time.Since(t)
		trUnits += tr.Explored
		c.checkUnit(cfg, res, k, tr)
		res.check(sameOutcome(rr, tr), "unit %d: traced RunFunc explored %d (violations %d), untraced %d (violations %d)",
			k, tr.Explored, tr.Violations, rr.Explored, rr.Violations)
		maxBranch = max(maxBranch, tr.MaxBranch)
		por += tr.PORSkipped
	}
	res.attempted = int64(trUnits)

	tot := sumLanes(lanes)
	var staged int64
	for _, st := range exploreStages {
		staged += tot.total[st.span]
		res.add(st.metric, tot.mean(st.span), "us")
	}
	otherFrac := 1 - ratio(float64(staged), float64(trWall)*exploreWorkers)
	res.add("chaos.other_frac", otherFrac, "ratio")
	res.add("chaos.max_branch", float64(maxBranch), "count")
	res.add("chaos.por_skipped", float64(por), "count")
	snap := reg.Snapshot()
	hits, misses := snap.Counter("arena.hits"), snap.Counter("arena.misses")
	res.add("arena.hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	for _, h := range snap.Histograms {
		if h.Name == "arena.reset_ns" {
			res.add("arena.reset_mean_us", ratio(us(h.Sum), float64(h.Count)), "us")
		}
	}
	res.addGo(refUse, refUnits)
	overhead := ratio(float64(trWall)/float64(trUnits), float64(refWall)/float64(refUnits)) - 1
	res.add("trace_overhead_frac", overhead, "ratio")
	res.note("traced %d schedules in %.2fs on %d workers; stages cover %.1f%% of worker time",
		trUnits, trWall.Seconds(), exploreWorkers, 100*(1-otherFrac))
	res.check(otherFrac <= 0.15, "chaos.other_frac %.3f exceeds 0.15", otherFrac)
	return res, writeTrace(cfg, res, lanes)
}
