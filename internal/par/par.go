// Package par is the shared bounded worker pool of the measurement surface:
// the chaos explorer, the experiment sweeps, the fleet study and the table
// runner all fan out through it. Its contract is the one that makes
// concurrent experiments reproducible:
//
//   - bounded workers: at most Workers(n) goroutines run jobs at any time;
//   - deterministic results: Map returns job results in index order, so the
//     output of a parallel run is bit-identical to a serial one whenever the
//     jobs themselves are deterministic;
//   - deterministic first-error capture: when jobs fail, the error of the
//     lowest-indexed failed job is returned, regardless of which worker
//     observed its failure first;
//   - cancellation: after any job fails, unstarted jobs are skipped
//     (in-flight jobs run to completion);
//   - panic containment: a panicking job is captured as that job's error
//     instead of killing the process from a worker goroutine.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ghost-installer/gia/internal/obs"
)

// Instrumentation re-homes the pool's telemetry onto the obs layer. Every
// field is optional. Wall-clock spans and durations are only recorded when
// Clock (and, for spans, Trace with an enabled wall domain) is set —
// chaos sweeps that must export byte-identical traces at any worker count
// leave both unset, because per-worker wall telemetry is inherently
// schedule-dependent.
type Instrumentation struct {
	// Tasks counts completed jobs (Map/Run) and processed items
	// (FrontierWorker). A FrontierWorker item whose process panicked is not
	// counted: the abort tears the run down before the item completes.
	Tasks *obs.Counter
	// Queued tracks unclaimed work in the active call.
	Queued *obs.Gauge
	// Busy tracks workers currently running a job.
	Busy *obs.Gauge
	// BusyNS accumulates per-job wall time in nanoseconds (needs Clock).
	BusyNS *obs.Counter
	// JobNS distributes per-job wall time (needs Clock).
	JobNS *obs.Histogram
	// Clock is the wall stopwatch for BusyNS/JobNS and span timestamps.
	Clock obs.Clock
	// Trace, when non-nil with an enabled wall domain, receives one
	// wall-clock span per job on a "par/worker-K" track.
	Trace *obs.Trace
	// PprofLabels labels worker goroutines with their worker index
	// (runtime/pprof label "par.worker") so CPU profiles attribute samples
	// per worker. Off by default: labeling allocates per pool spin-up.
	PprofLabels bool
}

// instr is the package-wide instrumentation; the pool is process-shared,
// so its telemetry is too. Loaded once per worker spin-up — never on the
// per-job fast path when disabled.
var instr atomic.Pointer[Instrumentation]

// SetInstrumentation installs hooks for every subsequent Map, Run and
// FrontierWorker call (nil disables them). Calls already in flight keep the
// instrumentation they started with.
func SetInstrumentation(in *Instrumentation) { instr.Store(in) }

// workerTrack returns worker k's wall track, nil when tracing is off.
func (in *Instrumentation) workerTrack(k int) *obs.Track {
	if in == nil || in.Trace == nil {
		return nil
	}
	return in.Trace.WallTrack("par/worker-" + strconv.Itoa(k))
}

// runLabeled runs work, optionally under a pprof worker label.
func (in *Instrumentation) runLabeled(k int, work func()) {
	if in != nil && in.PprofLabels {
		pprof.Do(context.Background(), pprof.Labels("par.worker", strconv.Itoa(k)), func(context.Context) {
			work()
		})
		return
	}
	work()
}

// jobDone records one finished job's counters; start is the Clock reading
// at job begin (zero when Clock is nil). completed is false for a
// FrontierWorker item whose process panicked: the wall time and busy gauge
// still settle, but the item is not booked as a completed task.
func (in *Instrumentation) jobDone(start time.Duration, completed bool) {
	if in == nil {
		return
	}
	if completed {
		in.Tasks.Add(1)
	}
	if in.Clock != nil {
		d := int64(in.Clock() - start)
		in.BusyNS.Add(d)
		in.JobNS.Observe(d)
	}
	in.Busy.Add(-1)
}

// Workers normalizes a requested pool size: n > 0 is used as given; zero or
// negative selects runtime.NumCPU(). Callers that want strict serial
// execution must pass 1 explicitly.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Map runs jobs 0..n-1 on a pool of at most Workers(workers) goroutines and
// returns their results in index order. The first error — by job index, not
// by wall-clock — aborts the map: the results slice is nil and unstarted
// jobs are skipped. A job that panics contributes a descriptive error
// instead of crashing the process.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapWorker(workers, n, func(_, i int) (T, error) { return fn(i) })
}

// MapWorker is Map with the worker index exposed: fn(worker, i) runs job i
// on pool worker `worker` (0 <= worker < Workers(workers)). Each worker
// index is owned by exactly one goroutine per call, so per-worker state
// (e.g. a device arena) indexed by it needs no locking inside a call. The
// index says nothing about *which* jobs land on a worker — that remains
// schedule-dependent — so results must stay worker-independent for
// deterministic output.
func MapWorker[T any](workers, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	in := instr.Load()
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			track := in.workerTrack(k)
			in.runLabeled(k, func() {
				for {
					i := int(next.Add(1)) - 1
					if i >= n || failed.Load() {
						return
					}
					var start time.Duration
					if in != nil {
						if q := int64(n) - next.Load(); q > 0 {
							in.Queued.Set(q)
						} else {
							in.Queued.Set(0)
						}
						in.Busy.Add(1)
						if in.Clock != nil {
							start = in.Clock()
						}
					}
					var sp obs.Span
					if track != nil {
						sp = track.Begin("job", strconv.Itoa(i))
					}
					if err := runJob(k, i, fn, &results[i]); err != nil {
						errs[i] = err
						failed.Store(true)
					}
					sp.End()
					in.jobDone(start, true)
				}
			})
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Run is Map for side-effect-only jobs: same pool, same cancellation, same
// lowest-index error capture, no result collection.
func Run(workers, n int, fn func(i int) error) error {
	_, err := Map(workers, n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// runJob executes one job with panic containment, storing its result only
// on success so a failed map never exposes partial values.
func runJob[T any](worker, i int, fn func(int, int) (T, error), out *T) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("par: job %d panicked: %v", i, p)
		}
	}()
	v, err := fn(worker, i)
	if err != nil {
		return err
	}
	*out = v
	return nil
}

// FrontierWorker drains a dynamic work list on a pool of Workers(workers)
// goroutines: each item is handed to process, which may return follow-up
// items that join the list. It returns once the list is empty and every
// in-flight item has completed. process(worker, it) runs on pool worker
// `worker` under the same ownership contract as MapWorker: index k is owned
// by one goroutine per call, enabling lock-free per-worker state.
//
// Processing order is unspecified — callers needing deterministic
// aggregates must derive them from item payloads (as the chaos explorer
// does with its total schedule order), not from completion order. A panic
// in process is re-raised on the calling goroutine once the other workers
// have finished their in-flight items, never from a worker.
//
// The list is one LIFO stack under one mutex, so a lone worker walks a
// tree depth-first. A worker pops the top item under the lock and runs it
// unlocked, then pushes its follow-ups and retires it under the lock.
// Workers that find the stack empty while items are in flight wait on a
// condition variable, which is broadcast whenever follow-ups are pushed,
// the last in-flight item retires, or an item panics.
func FrontierWorker[T any](workers int, seed []T, process func(worker int, it T) []T) {
	w := Workers(workers)
	var (
		mu       sync.Mutex
		stack    = append([]T(nil), seed...)
		inflight int
		panicked any
		aborted  bool
	)
	cond := sync.NewCond(&mu)
	in := instr.Load()
	if in != nil {
		in.Queued.Set(int64(len(stack)))
	}

	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			track := in.workerTrack(k)
			in.runLabeled(k, func() {
				mu.Lock()
				for {
					for !aborted && len(stack) == 0 && inflight > 0 {
						cond.Wait()
					}
					if aborted || len(stack) == 0 {
						break
					}
					n := len(stack) - 1
					it := stack[n]
					var zero T
					stack[n] = zero
					stack = stack[:n]
					inflight++
					mu.Unlock()

					var start time.Duration
					if in != nil {
						in.Queued.Set(int64(n))
						in.Busy.Add(1)
						if in.Clock != nil {
							start = in.Clock()
						}
					}
					var sp obs.Span
					if track != nil {
						sp = track.Begin("item", "")
					}
					kids, p := guardedProcess(k, process, it)
					sp.End()
					in.jobDone(start, p == nil)

					mu.Lock()
					inflight--
					if p != nil {
						if panicked == nil {
							panicked = p
						}
						aborted = true
					}
					stack = append(stack, kids...)
					if in != nil {
						in.Queued.Set(int64(len(stack)))
					}
					if p != nil || len(kids) > 0 || inflight == 0 {
						cond.Broadcast()
					}
				}
				mu.Unlock()
			})
		}(k)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

func guardedProcess[T any](worker int, process func(int, T) []T, it T) (kids []T, panicked any) {
	defer func() {
		if p := recover(); p != nil {
			panicked = p
		}
	}()
	return process(worker, it), nil
}
