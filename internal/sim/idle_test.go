package sim

import (
	"sync"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/fault"
)

// poll starts a ticker that re-arms forever, the shape of every attacker
// poller: without the tick mark it would keep a RunUntilIdle drive alive
// to its limit.
func poll(s *Scheduler) *int {
	n := new(int)
	NewTicker(s, 10*time.Millisecond, func(time.Duration) bool { *n++; return true })
	return n
}

// finishAt schedules the event that makes done report true.
func finishAt(s *Scheduler, at time.Duration) func() bool {
	done := false
	s.AtFn(at, func() { done = true })
	return func() bool { return done }
}

func TestRunUntilIdleStopsWhenOnlyTicksRemain(t *testing.T) {
	s := New(1)
	ticks := poll(s)
	done := finishAt(s, 35*time.Millisecond)
	s.RunUntilIdle(time.Hour, done)
	if s.Now() != 35*time.Millisecond || *ticks != 3 {
		t.Fatalf("stopped at %v after %d ticks, want 35ms after 3", s.Now(), *ticks)
	}
	// The poller is still armed: a later drive picks it up where it stopped.
	s.RunUntil(50 * time.Millisecond)
	if *ticks != 5 {
		t.Fatalf("ticks after resuming = %d, want 5", *ticks)
	}
}

func TestRunUntilIdleWithoutDoneRunsToLimit(t *testing.T) {
	s := New(1)
	ticks := poll(s)
	s.RunUntilIdle(time.Second, func() bool { return false })
	if s.Now() != time.Second || *ticks != 100 {
		t.Fatalf("now %v after %d ticks, want 1s after 100", s.Now(), *ticks)
	}
}

func TestRunUntilIdleIgnoresCancelledWork(t *testing.T) {
	s := New(1)
	poll(s)
	done := finishAt(s, 30*time.Millisecond)
	s.After(time.Hour, func() { t.Error("cancelled event fired") }).Cancel()
	// A timer cancelled from inside its own callback, after dispatch has
	// already uncounted it, must not be uncounted again.
	var self *Timer
	self = s.After(20*time.Millisecond, func() { self.Cancel() })
	s.RunUntilIdle(2*time.Hour, done)
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("stopped at %v, want 30ms: a cancelled timer kept the drive alive", s.Now())
	}
}

// dupFirst duplicates the first scheduled event far into the future.
type dupFirst struct{ probes int }

func (d *dupFirst) Probe(site fault.Site, _ string, _ time.Duration) fault.Action {
	d.probes++
	if site == fault.SiteSimEvent && d.probes == 1 {
		return fault.Action{Kind: fault.KindDuplicate, Delay: time.Hour}
	}
	return fault.None
}

func TestRunUntilIdleDuplicatedTickStaysTick(t *testing.T) {
	s := New(1)
	s.SetFaultInjector(&dupFirst{})
	poll(s) // the ticker's first arm is the duplicated event
	done := finishAt(s, 30*time.Millisecond)
	s.RunUntilIdle(2*time.Hour, done)
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("stopped at %v, want 30ms: the duplicated tick counted as work", s.Now())
	}
	if s.Pending() < 2 {
		t.Fatalf("pending = %d, want the re-armed tick and its duplicate", s.Pending())
	}
}

func TestRunUntilIdleRunsWorkPendingAtDone(t *testing.T) {
	s := New(1)
	ticks := poll(s)
	var order []string
	s.AtFn(time.Second, func() { order = append(order, "queued-before") })
	done := false
	s.AtFn(15*time.Millisecond, func() {
		done = true
		s.AfterFn(500*time.Millisecond, func() { order = append(order, "scheduled-by-done") })
	})
	s.RunUntilIdle(time.Hour, func() bool { return done })
	if len(order) != 2 || order[0] != "scheduled-by-done" || order[1] != "queued-before" {
		t.Fatalf("ran %v, want both pending events", order)
	}
	// Ticks keep interleaving until the last work event; the 1s tick was
	// queued after it, so the drive stops before dispatching that tick.
	if s.Now() != time.Second || *ticks != 99 {
		t.Fatalf("stopped at %v after %d ticks, want 1s after 99", s.Now(), *ticks)
	}
}

func TestResetClearsIdleCount(t *testing.T) {
	s := New(1)
	s.AfterFn(time.Hour, func() {})
	s.After(2*time.Hour, func() {})
	s.Reset(1)
	poll(s)
	done := finishAt(s, 25*time.Millisecond)
	s.RunUntilIdle(3*time.Hour, done)
	if s.Now() != 25*time.Millisecond {
		t.Fatalf("stopped at %v, want 25ms: Reset left pre-reset work counted", s.Now())
	}
}

// The work count is kept under the scheduler lock: scheduling and
// cancelling from several goroutines while a drive runs leaves it exact,
// zero once everything has fired or been cancelled.
func TestIdleCountUnderConcurrentUse(t *testing.T) {
	s := New(2)
	timers := make([][]*Timer, 4)
	for g := range timers {
		for i := 0; i < 200; i++ {
			timers[g] = append(timers[g], s.At(time.Duration(g*200+i)*time.Microsecond, func() {}))
		}
	}
	var wg sync.WaitGroup
	for g := range timers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, tm := range timers[g] {
				s.AtFn(time.Duration(g*200+i)*time.Microsecond, func() {})
				if i%3 == 0 {
					tm.Cancel()
				}
			}
		}(g)
	}
	drove := make(chan struct{})
	go func() {
		defer close(drove)
		s.RunUntilIdle(time.Second, func() bool { return false })
	}()
	wg.Wait()
	<-drove
	s.Run()
	s.mu.Lock()
	work := s.work
	s.mu.Unlock()
	if work != 0 {
		t.Fatalf("work count %d after every event fired or was cancelled, want 0", work)
	}
}
