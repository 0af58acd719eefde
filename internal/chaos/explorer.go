package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/par"
)

// DefaultDumpDepth bounds how many trailing events a violation dump
// carries per track when Explorer.DumpDepth is unset.
const DefaultDumpDepth = 128

// Violation is one schedule on which the invariant did not hold.
type Violation struct {
	Schedule Schedule // fully resolved (replayable) schedule
	Err      error    // what the RunFunc reported
}

// Result summarises an exploration or sweep.
type Result struct {
	// Explored counts schedules actually executed.
	Explored int
	// Violations counts schedules on which the invariant failed.
	Violations int
	// First is the canonical violation — the one with the smallest
	// schedule (shortest trimmed choice sequence, then lexicographically,
	// then by grid order for sweeps) — or nil if the invariant held
	// everywhere. It is deterministic regardless of worker count.
	First *Violation
	// Truncated reports that MaxSchedules stopped the exploration before
	// the choice tree (or grid) was exhausted.
	Truncated bool
	// MaxBranch is the widest same-instant tie observed (diagnostics: the
	// factorial blow-up knob).
	MaxBranch int
	// PORSkipped is always 0. It counted orderings skipped by a
	// partial-order reduction the explorer no longer has, and stays only
	// because the benchmark module reports it as chaos.por_skipped; it
	// goes with that metric.
	PORSkipped int
}

// Explorer enumerates schedules and checks an invariant over each, fanning
// runs out on the shared par worker pool. The zero value is ready to use.
type Explorer struct {
	// Workers bounds the worker pool; <= 0 means runtime.NumCPU (the
	// par.Workers convention). Each worker runs complete schedules, so
	// RunFuncs must be self-contained (no shared mutable state between
	// runs).
	Workers int
	// MaxSchedules caps how many schedules a call may execute; <= 0 means
	// no cap. Exhaustive exploration of an N-wide tie costs N! runs.
	MaxSchedules int
	// Plan, when non-nil, is the base fault plan cloned into every run.
	Plan *FaultPlan
	// Metrics, when non-nil, receives the counters "chaos.explored" and
	// "chaos.violations" — shared atomics, so their totals are identical
	// for any worker count.
	Metrics *obs.Registry
	// Trace, when non-nil, hands every run a virtual-time track named
	// "run/<token of the imposed schedule>" (reachable via Run.Track and
	// clock-bound at Attach). Track names derive from schedules, never
	// from workers, so virtual-only exports are byte-identical at any
	// worker count.
	Trace *obs.Trace
	// DumpDir, when non-empty, turns on flight-recorder dumps: every
	// violating run whose track recorded events gets the last DumpDepth of
	// them written to DumpDir as Chrome-trace JSON and JSONL, tagged with
	// the resolved replay token (in the filename, and as a trailing
	// "chaos.violation" instant carrying token and error). Requires Trace.
	// Dumps are keyed by token, and run tracks are virtual-only, so the
	// dump set is byte-identical at any worker count.
	DumpDir string
	// DumpDepth bounds the events per dumped track; <= 0 means
	// DefaultDumpDepth. With Trace in ring mode the ring depth caps it
	// first.
	DumpDepth int
	// WorkerState, when non-nil, is called lazily — at most once per pool
	// worker over the explorer's lifetime — to build state that worker's
	// runs share across schedules (typically a device arena, so Boot is a
	// one-time cost and each run resets the pooled device in place). Runs
	// read it back via Run.State. Because which schedules land on which
	// worker is timing-dependent, state must never influence a run's
	// *result*, only how cheaply the run rebuilds its world.
	WorkerState func() any

	mu     sync.Mutex
	states []any
	built  []bool
}

// stateFor returns worker k's shared state, building it on first use.
func (e *Explorer) stateFor(k int) any {
	if e.WorkerState == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.states) <= k {
		e.states = append(e.states, nil)
		e.built = append(e.built, false)
	}
	if !e.built[k] {
		e.states[k] = e.WorkerState()
		e.built[k] = true
	}
	return e.states[k]
}

// prepare builds the run for schedule s (already cloned by the caller) on
// pool worker k, giving it its trace lane and the worker's shared state.
func (e *Explorer) prepare(s Schedule, k int) *Run {
	r := newRun(s, e.Plan)
	if e.Trace != nil {
		r.track = e.Trace.VirtualTrack("run/" + s.Token())
	}
	r.state = e.stateFor(k)
	return r
}

// counted bumps the explorer's registry counters for one executed run.
func (e *Explorer) counted(err error) {
	if e.Metrics == nil {
		return
	}
	e.Metrics.Counter("chaos.explored").Add(1)
	if err != nil {
		e.Metrics.Counter("chaos.violations").Add(1)
	}
}

// Check executes fn once under schedule s and reports the invariant's
// verdict plus the fully resolved schedule (the replay token).
func (e *Explorer) Check(s Schedule, fn RunFunc) (Schedule, error) {
	r := e.prepare(s.clone(), 0)
	err := runGuarded(r, fn)
	e.counted(err)
	e.dumpViolation(r, err)
	return r.Schedule(), err
}

// sanitizeToken maps a replay token into a filename-safe form.
func sanitizeToken(token string) string {
	out := []byte(token)
	for i := 0; i < len(out); i++ {
		c := out[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			out[i] = '-'
		}
	}
	return string(out)
}

// dumpViolation writes the flight-recorder dump for a violating run: the
// last DumpDepth events of the run's track, as Chrome-trace JSON and
// JSONL named by the resolved replay token. Best-effort — a failed write
// bumps "chaos.dump_errors" instead of failing the exploration (the
// violation verdict already propagated). No-op unless DumpDir is set, the
// run violated, and the run has a track.
func (e *Explorer) dumpViolation(r *Run, err error) {
	if err == nil || e.DumpDir == "" || r.track == nil {
		return
	}
	token := r.Schedule().Token()
	// The marker instant rides inside the dump (and any later full-trace
	// export): the replay token plus what the invariant reported. The
	// track clock is scheduler-bound, so its timestamp is virtual and
	// deterministic.
	r.track.Instant("chaos.violation", token+": "+err.Error())
	depth := e.DumpDepth
	if depth <= 0 {
		depth = DefaultDumpDepth
	}
	tracks := []*obs.Track{obs.TailTrack(r.track, depth)}
	base := filepath.Join(e.DumpDir, "violation-"+sanitizeToken(token))
	failed := false
	if f, ferr := os.Create(base + ".trace.json"); ferr != nil {
		failed = true
	} else {
		werr := obs.WriteChromeTracks(f, tracks)
		if cerr := f.Close(); werr != nil || cerr != nil {
			failed = true
		}
	}
	if f, ferr := os.Create(base + ".jsonl"); ferr != nil {
		failed = true
	} else {
		werr := obs.WriteJSONLTracks(f, tracks)
		if cerr := f.Close(); werr != nil || cerr != nil {
			failed = true
		}
	}
	if failed {
		e.Metrics.Counter("chaos.dump_errors").Add(1)
	} else {
		e.Metrics.Counter("chaos.dumps").Add(1)
	}
}

// Replay decodes a token and re-executes its schedule, returning the
// invariant error the schedule reproduces (nil if it no longer violates).
func (e *Explorer) Replay(token string, fn RunFunc) (Schedule, error) {
	s, err := ParseToken(token)
	if err != nil {
		return Schedule{}, err
	}
	return e.Check(s, fn)
}

// runGuarded converts a RunFunc panic into a violation error, so one broken
// schedule fails that schedule instead of the whole exploration.
func runGuarded(r *Run, fn RunFunc) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("chaos: run panicked: %v", p)
		}
	}()
	return fn(r)
}

// ExploreOrders enumerates same-instant event orderings reachable from
// base (normally Schedule{Seed: s}): a depth-first walk of the arbiter's
// choice tree. Every execution is identified by its choice sequence; a run
// explored with prefix P spawns sibling prefixes at every contended
// instant after P, which visits each distinct ordering exactly once. For
// one instant with N tied events this is exactly the N! permutations.
func (e *Explorer) ExploreOrders(base Schedule, fn RunFunc) *Result {
	res := &Result{}
	var mu sync.Mutex
	maxSchedules := e.MaxSchedules
	par.FrontierWorker(e.Workers, []Schedule{base.clone()}, func(worker int, s Schedule) []Schedule {
		mu.Lock()
		if maxSchedules > 0 && res.Explored >= maxSchedules {
			// The cap was reached while work remained queued: drop this
			// schedule (and, transitively, its unexplored siblings).
			res.Truncated = true
			mu.Unlock()
			return nil
		}
		res.Explored++
		mu.Unlock()

		r := e.prepare(s, worker)
		err := runGuarded(r, fn)
		e.counted(err)
		e.dumpViolation(r, err)

		mu.Lock()
		defer mu.Unlock()
		// Extend the frontier with every sibling of a default choice taken
		// past the imposed prefix.
		var sibs []Schedule
		for i := len(s.Choices); i < len(r.arb.branches); i++ {
			b := r.arb.branches[i]
			if b > res.MaxBranch {
				res.MaxBranch = b
			}
			nsibs := b - 1 - r.arb.choices[i]
			if nsibs <= 0 {
				continue
			}
			// One backing array for all of this instant's sibling prefixes:
			// nsibs slices of i+1 choices each, copied from the resolved
			// trace once.
			width := i + 1
			buf := make([]int, nsibs*width)
			for alt := r.arb.choices[i] + 1; alt < b; alt++ {
				cs := buf[:width:width]
				buf = buf[width:]
				copy(cs, r.arb.choices[:i])
				cs[i] = alt
				sibs = append(sibs, Schedule{Seed: s.Seed, Jitter: s.Jitter, Choices: cs})
			}
		}
		if err != nil {
			res.Violations++
			v := &Violation{Schedule: trim(r.Schedule()), Err: err}
			if res.First == nil || lessSchedule(v.Schedule, res.First.Schedule) {
				res.First = v
			}
		}
		return sibs
	})
	return res
}

// Sweep checks the invariant over the full seeds × jitters grid (one
// schedule per cell, arbiter left at FIFO), using the shared bounded worker
// pool. MaxSchedules truncates the grid in row-major order; Result.First is
// the violation at the lowest grid index regardless of worker count.
func (e *Explorer) Sweep(seeds []int64, jitters []time.Duration, fn RunFunc) *Result {
	if len(jitters) == 0 {
		jitters = []time.Duration{0}
	}
	cells := make([]Schedule, 0, len(seeds)*len(jitters))
	for _, seed := range seeds {
		for _, j := range jitters {
			cells = append(cells, Schedule{Seed: seed, Jitter: j})
		}
	}
	res := &Result{}
	if cap := e.MaxSchedules; cap > 0 && len(cells) > cap {
		cells = cells[:cap]
		res.Truncated = true
	}

	type cellResult struct {
		sched     Schedule
		maxBranch int
		err       error
	}
	// The RunFunc's verdict is data (a violation), never a pool error, so
	// the map always completes the whole grid.
	outs, _ := par.MapWorker(e.Workers, len(cells), func(worker, i int) (cellResult, error) {
		r := e.prepare(cells[i], worker)
		err := runGuarded(r, fn)
		e.counted(err)
		e.dumpViolation(r, err)
		return cellResult{sched: trim(r.Schedule()), maxBranch: maxBranch(r.arb.branches), err: err}, nil
	})
	for _, o := range outs {
		res.Explored++
		if o.maxBranch > res.MaxBranch {
			res.MaxBranch = o.maxBranch
		}
		if o.err != nil {
			res.Violations++
			if res.First == nil {
				res.First = &Violation{Schedule: o.sched, Err: o.err}
			}
		}
	}
	return res
}

// Minimize shrinks a violating schedule to the smallest one (shortest
// choice prefix, zeroed where possible) that still violates the invariant,
// re-running fn to validate each candidate. The result replays to a
// violation by construction; its token is what a test should print.
func (e *Explorer) Minimize(v Schedule, fn RunFunc) Schedule {
	best := trim(v.clone())
	violates := func(s Schedule) bool {
		_, err := e.Check(s, fn)
		return err != nil
	}
	if !violates(best) {
		return best // not reproducible; nothing to shrink against
	}
	// Shortest violating prefix (the suffix defaults to FIFO).
	for k := 0; k < len(best.Choices); k++ {
		cand := best.clone()
		cand.Choices = cand.Choices[:k]
		if violates(cand) {
			best = trim(cand)
			break
		}
	}
	// Zero out any remaining individual choices.
	for i := range best.Choices {
		if best.Choices[i] == 0 {
			continue
		}
		cand := best.clone()
		cand.Choices[i] = 0
		if violates(cand) {
			best = cand
		}
	}
	return trim(best)
}

// trim drops trailing FIFO (zero) choices — they are the default, so the
// shorter token names the same execution.
func trim(s Schedule) Schedule {
	n := len(s.Choices)
	for n > 0 && s.Choices[n-1] == 0 {
		n--
	}
	s.Choices = s.Choices[:n]
	return s
}

// lessSchedule orders schedules by choice-sequence length, then
// lexicographically, then by seed and jitter — a total order that makes
// Result.First deterministic under concurrency.
func lessSchedule(a, b Schedule) bool {
	if len(a.Choices) != len(b.Choices) {
		return len(a.Choices) < len(b.Choices)
	}
	for i := range a.Choices {
		if a.Choices[i] != b.Choices[i] {
			return a.Choices[i] < b.Choices[i]
		}
	}
	if a.Seed != b.Seed {
		return a.Seed < b.Seed
	}
	return a.Jitter < b.Jitter
}

func maxBranch(bs []int) int {
	m := 0
	for _, b := range bs {
		if b > m {
			m = b
		}
	}
	return m
}
