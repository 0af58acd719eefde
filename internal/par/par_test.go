package par

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/obs"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapZeroAndNegativeWorkers(t *testing.T) {
	// <= 0 selects NumCPU; the pool must still run every job exactly once.
	for _, workers := range []int{0, -1, -100} {
		var ran atomic.Int64
		got, err := Map(workers, 50, func(i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if err != nil || len(got) != 50 || ran.Load() != 50 {
			t.Fatalf("workers=%d: err=%v len=%d ran=%d", workers, err, len(got), ran.Load())
		}
	}
	if w := Workers(0); w != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", w, runtime.NumCPU())
	}
	if w := Workers(3); w != 3 {
		t.Errorf("Workers(3) = %d", w)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(int) (int, error) { t.Fatal("job ran"); return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	// Several jobs fail; the reported error must be the lowest-indexed
	// failure regardless of completion order, and results must be nil.
	errLow := errors.New("low")
	for _, workers := range []int{1, 4, 16} {
		got, err := Map(workers, 40, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 17, 31:
				return 0, fmt.Errorf("high %d", i)
			}
			return i, nil
		})
		if got != nil {
			t.Fatalf("workers=%d: results not nil on error", workers)
		}
		// With workers > 1 a higher-indexed failure may cancel the map
		// before job 3 starts; the captured error must still be the
		// lowest-indexed one that actually failed.
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if workers == 1 && !errors.Is(err, errLow) {
			t.Fatalf("workers=1: err = %v, want %v (lowest index runs first serially)", err, errLow)
		}
	}
}

func TestMapCancellationSkipsUnstartedJobs(t *testing.T) {
	// With one worker the jobs run in index order, so a failure at index 2
	// must prevent every later job from starting.
	var ran []int
	err := Run(1, 100, func(i int) error {
		ran = append(ran, i)
		if i == 2 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if len(ran) != 3 {
		t.Fatalf("ran %v, want exactly [0 1 2]", ran)
	}
}

func TestMapPanicContainment(t *testing.T) {
	got, err := Map(4, 10, func(i int) (int, error) {
		if i == 5 {
			panic("boom")
		}
		return i, nil
	})
	if got != nil || err == nil {
		t.Fatalf("got %v, %v", got, err)
	}
	if !strings.Contains(err.Error(), "job 5 panicked: boom") {
		t.Errorf("err = %v, want panic provenance", err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	err := Run(workers, 64, func(int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds pool size %d", p, workers)
	}
}

func TestFrontierDrainsDynamicWork(t *testing.T) {
	// Walk a ternary tree of depth 3 via the frontier: every node must be
	// visited exactly once, regardless of worker count.
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		seen := map[string]bool{}
		FrontierWorker(workers, []string{""}, func(_ int, path string) []string {
			mu.Lock()
			if seen[path] {
				t.Errorf("node %q visited twice", path)
			}
			seen[path] = true
			mu.Unlock()
			if len(path) >= 3 {
				return nil
			}
			return []string{path + "a", path + "b", path + "c"}
		})
		want := 1 + 3 + 9 + 27
		if len(seen) != want {
			t.Fatalf("workers=%d: visited %d nodes, want %d", workers, len(seen), want)
		}
	}
}

func TestFrontierPanicSurfacesOnCaller(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("panic did not propagate")
		}
		if s, ok := p.(string); !ok || s != "frontier boom" {
			t.Fatalf("recovered %v", p)
		}
	}()
	FrontierWorker(2, []int{1, 2, 3, 4}, func(_, i int) []int {
		if i == 3 {
			panic("frontier boom")
		}
		return nil
	})
}

func TestFrontierDeterministicAggregation(t *testing.T) {
	// Aggregates derived from item payloads (not completion order) must be
	// identical across worker counts — the property the chaos explorer and
	// the experiment engine rely on.
	collect := func(workers int) []int {
		var mu sync.Mutex
		var out []int
		FrontierWorker(workers, []int{10, 20, 30}, func(_, i int) []int {
			mu.Lock()
			out = append(out, i)
			mu.Unlock()
			if i%10 == 0 {
				return []int{i + 1, i + 2}
			}
			return nil
		})
		sort.Ints(out)
		return out
	}
	a, b := collect(1), collect(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("aggregates differ: %v vs %v", a, b)
	}
}

// TestMapInstrumentation exercises the pool's obs hooks: task counts,
// busy/queued gauges draining to zero, wall durations on an injected
// ticking clock and per-worker trace spans.
func TestMapInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	tr.SetWallClock(obs.TickingClock(time.Microsecond))
	SetInstrumentation(&Instrumentation{
		Tasks:  reg.Counter("par.tasks"),
		Queued: reg.Gauge("par.queued"),
		Busy:   reg.Gauge("par.busy"),
		BusyNS: reg.Counter("par.busy_ns"),
		JobNS:  reg.Histogram("par.job_ns", obs.DurationBuckets()),
		Clock:  obs.TickingClock(time.Microsecond),
		Trace:  tr,
	})
	defer SetInstrumentation(nil)

	const n = 50
	results, err := Map(4, n, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n || results[7] != 49 {
		t.Fatalf("results corrupted: len=%d", len(results))
	}

	snap := reg.Snapshot()
	if got := snap.Counter("par.tasks"); got != n {
		t.Errorf("par.tasks = %d, want %d", got, n)
	}
	if got := snap.Gauge("par.busy"); got != 0 {
		t.Errorf("par.busy after drain = %d, want 0", got)
	}
	if got := snap.Counter("par.busy_ns"); got <= 0 {
		t.Errorf("par.busy_ns = %d, want > 0 on a ticking clock", got)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != n {
		t.Errorf("par.job_ns histogram = %+v, want %d observations", snap.Histograms, n)
	}
	spans := 0
	for _, k := range tr.Tracks() {
		if k.Domain() != obs.DomainWall {
			t.Errorf("worker track %q in domain %v, want wall", k.Name(), k.Domain())
		}
		for _, ev := range k.Events() {
			if ev.Instant || ev.Name != "job" || ev.Dur < 0 {
				t.Errorf("worker span: %+v", ev)
			}
			spans++
		}
	}
	if spans != n {
		t.Errorf("worker spans = %d, want %d", spans, n)
	}
}

// TestFrontierInstrumentation checks item accounting on the dynamic list.
func TestFrontierInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	SetInstrumentation(&Instrumentation{
		Tasks:  reg.Counter("par.tasks"),
		Queued: reg.Gauge("par.queued"),
		Busy:   reg.Gauge("par.busy"),
	})
	defer SetInstrumentation(nil)

	// 1 seed item spawning a two-level tree: 1 + 3 + 9 items.
	FrontierWorker(4, []int{0}, func(_, depth int) []int {
		if depth >= 2 {
			return nil
		}
		return []int{depth + 1, depth + 1, depth + 1}
	})
	snap := reg.Snapshot()
	if got := snap.Counter("par.tasks"); got != 13 {
		t.Errorf("par.tasks = %d, want 13", got)
	}
	if snap.Gauge("par.busy") != 0 || snap.Gauge("par.queued") != 0 {
		t.Errorf("gauges after drain: busy=%d queued=%d", snap.Gauge("par.busy"), snap.Gauge("par.queued"))
	}
}

// TestFrontierPanickedItemNotATask pins the instrumentation fix: an item
// whose process panics must not be booked as a completed task, while the
// busy gauge still settles to zero.
func TestFrontierPanickedItemNotATask(t *testing.T) {
	reg := obs.NewRegistry()
	SetInstrumentation(&Instrumentation{
		Tasks:  reg.Counter("par.tasks"),
		Queued: reg.Gauge("par.queued"),
		Busy:   reg.Gauge("par.busy"),
	})
	defer SetInstrumentation(nil)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		FrontierWorker(1, []int{0}, func(_, i int) []int {
			if i == 2 {
				panic("boom")
			}
			return []int{i + 1}
		})
	}()
	snap := reg.Snapshot()
	// Serial worker processes 0, 1, then panics on 2: exactly two completed.
	if got := snap.Counter("par.tasks"); got != 2 {
		t.Errorf("par.tasks = %d, want 2 (panicked item excluded)", got)
	}
	if got := snap.Gauge("par.busy"); got != 0 {
		t.Errorf("par.busy after abort = %d, want 0", got)
	}
}

// TestFrontierWorkerOwnership pins the MapWorker-style contract on the
// frontier: each worker index is owned by exactly one goroutine at a time.
func TestFrontierWorkerOwnership(t *testing.T) {
	const workers = 4
	var active [workers]atomic.Int64
	FrontierWorker(workers, []int{0, 0, 0, 0, 0, 0, 0, 0}, func(w, depth int) []int {
		if active[w].Add(1) != 1 {
			t.Errorf("worker %d entered concurrently", w)
		}
		defer active[w].Add(-1)
		if depth >= 2 {
			return nil
		}
		return []int{depth + 1, depth + 1}
	})
}

// TestFrontierChainWakesWaiters walks a chain in which every item has
// exactly one follow-up: at any moment one item is in flight and the stack
// is empty, so all other workers wait and must be woken for each link and
// released when the last one retires. A lost wakeup hangs here.
func TestFrontierChainWakesWaiters(t *testing.T) {
	const n = 2000
	var seen [n]atomic.Int32
	FrontierWorker(8, []int{0}, func(_, i int) []int {
		seen[i].Add(1)
		runtime.Gosched() // let the other workers park on the empty stack
		if i+1 == n {
			return nil
		}
		return []int{i + 1}
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("item %d processed %d times, want 1", i, got)
		}
	}
}

// TestFrontierChainPanicReleasesWaiters panics deep in a chain while the
// other workers wait on an empty stack: the abort must wake them, and the
// panic must re-raise on the caller instead of hanging the call.
func TestFrontierChainPanicReleasesWaiters(t *testing.T) {
	defer func() {
		if p := recover(); p != "chain boom" {
			t.Fatalf("recovered %v, want chain boom", p)
		}
	}()
	FrontierWorker(8, []int{0}, func(_, i int) []int {
		runtime.Gosched()
		if i == 1500 {
			panic("chain boom")
		}
		return []int{i + 1}
	})
	t.Fatal("FrontierWorker returned normally past a panic")
}

// TestUninstrumentedPoolUnaffected pins that the default (nil) state keeps
// working after instrumentation is removed.
func TestUninstrumentedPoolUnaffected(t *testing.T) {
	SetInstrumentation(nil)
	out, err := Map(2, 8, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 8 {
		t.Fatalf("uninstrumented Map = (%v, %v)", out, err)
	}
}
