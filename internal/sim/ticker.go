package sim

import "time"

// Ticker repeatedly invokes a callback at a fixed virtual-time period until
// stopped or until the callback asks to stop. It is the building block for
// polling attackers (oom_adj watchers, symlink flippers, EOCD pollers).
type Ticker struct {
	s       *Scheduler
	period  time.Duration
	fn      func(now time.Duration) bool
	tickFn  func() // t.tick, bound once so a re-arm allocates nothing
	timer   Timer
	stopped bool
}

// NewTicker schedules fn every period, starting one period from now. fn
// returns false to stop the ticker. Stop cancels any pending tick.
func NewTicker(s *Scheduler, period time.Duration, fn func(now time.Duration) bool) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{s: s, period: period, fn: fn}
	t.tickFn = t.tick
	t.arm()
	return t
}

// arm schedules the next tick. Ticks are marked as such, so a drive through
// RunUntilIdle does not wait on a ticker that would re-arm forever.
func (t *Ticker) arm() {
	t.timer = t.s.schedule(t.s.Now()+t.period, t.tickFn, Footprint{}, true)
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	if !t.fn(t.s.Now()) {
		t.stopped = true
		return
	}
	t.arm()
}

// Stop cancels the ticker. Stopping twice is a no-op.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.timer.Cancel()
}

// Stopped reports whether the ticker has been stopped (by Stop or by the
// callback returning false).
func (t *Ticker) Stopped() bool { return t.stopped }
