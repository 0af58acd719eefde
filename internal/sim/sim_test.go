package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"github.com/ghost-installer/gia/internal/obs"
)

func TestSchedulerRunsInDeadlineOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()

	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %d, want %d", i, got[i], want[i])
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSchedulerSameInstantIsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (same-instant events must be FIFO)", i, v, i)
		}
	}
}

func TestSchedulerAfterIsRelative(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.At(5*time.Millisecond, func() {
		s.After(7*time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 12*time.Millisecond {
		t.Errorf("nested After fired at %v, want 12ms", at)
	}
}

func TestSchedulerPastEventClampsToNow(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.At(10*time.Millisecond, func() {
		s.At(time.Millisecond, func() { at = s.Now() })
	})
	s.Run()
	if at != 10*time.Millisecond {
		t.Errorf("past-scheduled event fired at %v, want clamped to 10ms", at)
	}
}

func TestTimerCancel(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.At(time.Millisecond, func() { fired = true })
	tm.Cancel()
	tm.Cancel() // double-cancel is a no-op
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0", s.Pending())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	ran := 0
	s.At(5*time.Millisecond, func() { ran++ })
	s.At(50*time.Millisecond, func() { ran++ })

	s.RunUntil(10 * time.Millisecond)
	if ran != 1 {
		t.Fatalf("ran %d events by 10ms, want 1", ran)
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("Now() = %v, want 10ms", s.Now())
	}

	s.RunUntil(100 * time.Millisecond)
	if ran != 2 {
		t.Fatalf("ran %d events by 100ms, want 2", ran)
	}
	if s.Now() != 100*time.Millisecond {
		t.Errorf("Now() = %v, want 100ms", s.Now())
	}
}

func TestRunUntilEmptyQueueStillAdvances(t *testing.T) {
	s := New(1)
	s.RunUntil(42 * time.Millisecond)
	if s.Now() != 42*time.Millisecond {
		t.Errorf("Now() = %v, want 42ms", s.Now())
	}
}

func TestUniformBoundsAndDeterminism(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 1000; i++ {
		va := a.Uniform(time.Millisecond, 5*time.Millisecond)
		vb := b.Uniform(time.Millisecond, 5*time.Millisecond)
		if va != vb {
			t.Fatalf("draw %d: same seed produced %v and %v", i, va, vb)
		}
		if va < time.Millisecond || va > 5*time.Millisecond {
			t.Fatalf("draw %d: %v outside [1ms, 5ms]", i, va)
		}
	}
	if got := a.Uniform(3*time.Second, 3*time.Second); got != 3*time.Second {
		t.Errorf("degenerate range draw = %v, want 3s", got)
	}
}

func TestUniformPanicsOnInvertedRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uniform(hi<lo) did not panic")
		}
	}()
	New(1).Uniform(2*time.Second, time.Second)
}

func TestTickerFiresUntilStopped(t *testing.T) {
	s := New(1)
	ticks := 0
	tk := NewTicker(s, time.Millisecond, func(now time.Duration) bool {
		ticks++
		return ticks < 5
	})
	s.Run()
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if !tk.Stopped() {
		t.Error("ticker not stopped after callback returned false")
	}
}

func TestTickerStop(t *testing.T) {
	s := New(1)
	ticks := 0
	var tk *Ticker
	tk = NewTicker(s, time.Millisecond, func(now time.Duration) bool {
		ticks++
		if ticks == 3 {
			tk.Stop()
			tk.Stop() // double stop is a no-op
		}
		return true
	})
	s.Run()
	if ticks != 3 {
		t.Errorf("ticks = %d, want 3 (stopped mid-run)", ticks)
	}
}

func TestTickerPanicsOnNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTicker(0) did not panic")
		}
	}()
	NewTicker(New(1), 0, func(time.Duration) bool { return false })
}

// Property: for any set of deadlines, events run in nondecreasing time order
// and the clock ends at the max deadline.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(deadlines []uint16) bool {
		if len(deadlines) == 0 {
			return true
		}
		s := New(99)
		var fired []time.Duration
		var maxAt time.Duration
		for _, d := range deadlines {
			at := time.Duration(d) * time.Microsecond
			if at > maxAt {
				maxAt = at
			}
			s.At(at, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(deadlines) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == maxAt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: two schedulers with the same seed make identical uniform draws.
func TestPropertySeedDeterminism(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < int(n); i++ {
			if a.Uniform(0, time.Second) != b.Uniform(0, time.Second) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSchedulerMetrics exercises the Instrument hooks: scheduled/dispatched
// counters, cancel transitions, queue depth, and per-dispatch trace
// instants stamped with event deadlines.
func TestSchedulerMetrics(t *testing.T) {
	s := New(1)
	reg := obs.NewRegistry()
	tr := obs.NewTrace()
	track := tr.VirtualTrack("sched")
	s.Instrument(Metrics{
		Scheduled:  reg.Counter("sim.scheduled"),
		Dispatched: reg.Counter("sim.dispatched"),
		Cancelled:  reg.Counter("sim.cancelled"),
		Depth:      reg.Gauge("sim.depth"),
		Track:      track,
	})

	s.At(10*time.Millisecond, func() {})
	s.At(20*time.Millisecond, func() {})
	tm := s.At(30*time.Millisecond, func() { t.Error("cancelled event fired") })
	if got := reg.Snapshot().Gauge("sim.depth"); got != 3 {
		t.Errorf("depth after scheduling = %d, want 3", got)
	}
	tm.Cancel()
	tm.Cancel() // second cancel is not a transition
	s.Run()

	snap := reg.Snapshot()
	if got := snap.Counter("sim.scheduled"); got != 3 {
		t.Errorf("scheduled = %d, want 3", got)
	}
	if got := snap.Counter("sim.dispatched"); got != 2 {
		t.Errorf("dispatched = %d, want 2", got)
	}
	if got := snap.Counter("sim.cancelled"); got != 1 {
		t.Errorf("cancelled = %d, want 1", got)
	}
	if got := snap.Gauge("sim.depth"); got != 0 {
		t.Errorf("depth after drain = %d, want 0", got)
	}
	evs := track.Events()
	if len(evs) != 2 || evs[0].Start != 10*time.Millisecond || evs[1].Start != 20*time.Millisecond {
		t.Errorf("dispatch instants = %+v", evs)
	}
}

// TestSchedulerFarDeadlines: deadlines from half a millisecond to 3,000
// days, scheduled in reverse, dispatch in deadline order.
func TestSchedulerFarDeadlines(t *testing.T) {
	s := New(1)
	deadlines := []time.Duration{
		500 * time.Microsecond,
		30 * time.Millisecond,
		3 * time.Second,
		2 * time.Minute,
		20 * time.Hour,
		40 * 24 * time.Hour,
		900 * 24 * time.Hour,
		3000 * 24 * time.Hour,
	}
	var got []time.Duration
	// Schedule in reverse so insertion order cannot mask ordering bugs.
	for i := len(deadlines) - 1; i >= 0; i-- {
		d := deadlines[i]
		s.At(d, func() { got = append(got, s.Now()) })
	}
	s.Run()
	if len(got) != len(deadlines) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(deadlines))
	}
	for i, d := range deadlines {
		if got[i] != d {
			t.Fatalf("dispatch %d at %v, want %v (full order %v)", i, got[i], d, got)
		}
	}
}

// TestSchedulerNearMidFarOrder: events scheduled mid-run, the farthest one
// 4,096 ms beyond the nearest, fire in deadline order, not scheduling
// order.
func TestSchedulerNearMidFarOrder(t *testing.T) {
	s := New(1)
	var order []string
	s.At(70*time.Millisecond, func() {
		s.At(126*time.Millisecond, func() { order = append(order, "near") })
		s.At(4166*time.Millisecond, func() { order = append(order, "far") })
		s.At(130*time.Millisecond, func() { order = append(order, "mid") })
	})
	s.Run()
	want := []string{"near", "mid", "far"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestSchedulerReset pins the arena's reset contract at the scheduler
// level: after any amount of use, Reset(seed) is indistinguishable from
// New(seed) — clock, pending set, fingerprint and the full random stream.
func TestSchedulerReset(t *testing.T) {
	s := New(99)
	for i := 0; i < 50; i++ {
		s.After(time.Duration(i)*7*time.Millisecond, func() {})
	}
	tm := s.After(time.Hour, func() {})
	s.RunUntil(200 * time.Millisecond)
	tm.Cancel()
	_ = s.Uint32()

	s.Reset(2017)
	fresh := New(2017)
	if got, want := s.Fingerprint(), fresh.Fingerprint(); got != want {
		t.Fatalf("reset fingerprint %+v, want fresh %+v", got, want)
	}
	if s.Now() != 0 || s.Pending() != 0 {
		t.Fatalf("reset left now=%v pending=%d", s.Now(), s.Pending())
	}
	for i := 0; i < 1000; i++ {
		if got, want := s.Uint32(), fresh.Uint32(); got != want {
			t.Fatalf("draw %d: reset stream %d, fresh stream %d", i, got, want)
		}
	}
}

// TestResetInvalidatesStaleTimers: a Timer created before Reset must not be
// able to cancel an event scheduled after Reset, even though the event
// struct is recycled through the pool.
func TestResetInvalidatesStaleTimers(t *testing.T) {
	s := New(1)
	stale := s.After(time.Second, func() {})
	s.Reset(1)
	fired := false
	s.After(time.Second, func() { fired = true })
	stale.Cancel() // may recycle into the same *event; generation must block it
	s.Run()
	if !fired {
		t.Fatal("stale pre-reset Timer cancelled a post-reset event")
	}
}

// TestTimerCancelAfterFireIsNoop: cancelling a fired timer whose event was
// already recycled into a new pending event must not cancel the new one.
func TestTimerCancelAfterFireIsNoop(t *testing.T) {
	s := New(1)
	first := s.After(time.Millisecond, func() {})
	s.Run() // fires and recycles first's event
	fired := false
	s.After(time.Millisecond, func() { fired = true })
	first.Cancel()
	s.Run()
	if !fired {
		t.Fatal("Cancel of a fired timer killed the recycled event")
	}
}

// TestSchedulerAllocBudget pins the per-event cost of the simulator hot
// path: in steady state, scheduling (AfterFn) plus dispatching an event
// through the pooled heap must not allocate at all, and neither must a
// ticker's tick and re-arm.
func TestSchedulerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := New(1)
	fn := func() {}
	// Warm the event pool and the heap's capacity.
	for i := 0; i < 64; i++ {
		s.AfterFn(time.Duration(i)*time.Millisecond, fn)
	}
	s.Run()
	perEvent := testing.AllocsPerRun(2000, func() {
		s.AfterFn(3*time.Millisecond, fn)
		s.Step()
	})
	const budget = 0.0
	if perEvent > budget {
		t.Fatalf("schedule+dispatch allocates %.2f objects/event, budget %.2f", perEvent, budget)
	}
	// The same through RunUntilIdle, whose stop rule reads the work count
	// kept inside the enqueue and dispatch critical sections: the idle
	// check adds no allocation (and no lock round trip) per event.
	idle := func() bool { return true }
	perEvent = testing.AllocsPerRun(2000, func() {
		s.AfterFn(3*time.Millisecond, fn)
		s.RunUntilIdle(maxDeadline, idle)
	})
	if perEvent > budget {
		t.Fatalf("schedule+RunUntilIdle allocates %.2f objects/event, budget %.2f", perEvent, budget)
	}
	// A Ticker re-arms on every tick. Its Timer is held by value and its
	// tick method bound once, so a poller's tick allocates nothing either.
	ticks := 0
	NewTicker(s, time.Millisecond, func(time.Duration) bool { ticks++; return true })
	s.Step()
	perTick := testing.AllocsPerRun(2000, func() { s.Step() })
	if perTick > budget {
		t.Fatalf("ticker tick+re-arm allocates %.2f objects/tick, budget %.2f", perTick, budget)
	}
	if ticks < 2000 {
		t.Fatalf("ticker fired %d times, want every step to tick", ticks)
	}
}
