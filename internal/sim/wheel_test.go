package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// driveBoth executes one operation script against a wheel-backed scheduler
// (the default) and a heap-backed one, returning the two dispatch logs.
// Each log line is "<event-id>@<deadline>"; identical logs mean identical
// dispatch order at identical instants.
func driveBoth(seed int64, script []byte) (wheelLog, heapLog string) {
	run := func(s *Scheduler) string {
		var log strings.Builder
		var timers []*Timer
		// A deterministic arbiter derived from the script keeps the tie
		// paths (popTies) under differential test too.
		arb := 0
		s.SetArbiter(func(n int) int {
			arb++
			return arb % n
		})
		id := 0
		var record func(id int) func()
		record = func(id int) func() {
			return func() {
				fmt.Fprintf(&log, "%d@%d\n", id, s.Now())
			}
		}
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i], int64(script[i+1])
			switch op % 6 {
			case 0: // schedule relative, spread across wheel levels
				d := time.Duration(arg*arg) * 3 * time.Millisecond
				timers = append(timers, s.After(d, record(id)))
				id++
			case 1: // schedule far out (exercises higher levels / overflow)
				d := time.Duration(arg) * 97 * time.Second
				timers = append(timers, s.After(d, record(id)))
				id++
			case 2: // same-instant tie at a round deadline
				at := s.Now() + time.Duration(arg%8)*time.Millisecond
				timers = append(timers, s.At(at, record(id)))
				id++
				timers = append(timers, s.At(at, record(id)))
				id++
			case 3: // cancel an earlier timer
				if len(timers) > 0 {
					timers[int(arg)%len(timers)].Cancel()
				}
			case 4: // bounded advance
				s.RunUntil(s.Now() + time.Duration(arg)*50*time.Millisecond)
			case 5: // single step
				s.Step()
			}
		}
		s.Run()
		fmt.Fprintf(&log, "end@%d pending=%d\n", s.Now(), s.Pending())
		return log.String()
	}
	return run(New(seed)), run(newHeapScheduler(seed))
}

// FuzzTimerWheel is the differential oracle for the hierarchical timer
// wheel: random schedule/cancel/advance scripts executed against both the
// original binary heap and the wheel must dispatch the same events in the
// same order at the same virtual instants.
func FuzzTimerWheel(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 0, 5, 2, 0, 3, 1, 4, 2, 5, 0})
	f.Add(int64(2), []byte{1, 200, 1, 3, 0, 250, 4, 255, 2, 7, 3, 0, 4, 100})
	f.Add(int64(3), []byte{2, 0, 2, 0, 2, 0, 5, 0, 5, 0, 4, 50})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		wheel, heap := driveBoth(seed, script)
		if wheel != heap {
			t.Fatalf("wheel and heap dispatch diverged\nwheel:\n%s\nheap:\n%s", wheel, heap)
		}
	})
}

// TestTimerWheelFarDeadlines pins level selection: deadlines spanning every
// wheel level plus the overflow list still dispatch in deadline order.
func TestTimerWheelFarDeadlines(t *testing.T) {
	s := New(1)
	deadlines := []time.Duration{
		500 * time.Microsecond, // level 0 (sub-tick)
		30 * time.Millisecond,  // level 0
		3 * time.Second,        // level 1
		2 * time.Minute,        // level 2
		20 * time.Hour,         // level 3
		40 * 24 * time.Hour,    // level 4
		900 * 24 * time.Hour,   // level 5 horizon
		3000 * 24 * time.Hour,  // overflow
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

// TestTimerWheelWrapAmbiguity forces the start-slot near/far collision: an
// event one full level-span away shares the start slot with a near event,
// and the near one must fire first.
func TestTimerWheelWrapAmbiguity(t *testing.T) {
	s := New(1)
	var order []string
	// Advance the clock off slot alignment first.
	s.At(70*time.Millisecond, func() {
		// near: same level-1 bucket region as the clock; far: one level-1
		// span (4096 ticks) later, mapping to the same slot.
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
// through the pooled wheel must not allocate at all.
func TestSchedulerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := New(1)
	fn := func() {}
	// Warm the pool and the wheel slots.
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
}
