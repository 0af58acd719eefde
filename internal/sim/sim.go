// Package sim provides a deterministic discrete-event scheduler with a
// virtual clock. Every timing-sensitive component of the simulated Android
// device (downloads, verification reads, attacker reaction latency, race
// windows) is driven by one Scheduler, which makes every experiment in this
// repository reproducible from a seed.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ghost-installer/gia/internal/fault"
	"github.com/ghost-installer/gia/internal/obs"
)

// Metrics are the scheduler's observability hooks. Every field is
// optional; nil fields (and the zero Metrics) disable the corresponding
// stream at zero cost, so an uninstrumented scheduler stays on the PR-4
// allocation budgets.
type Metrics struct {
	// Scheduled counts events entering the queue (duplicates included).
	Scheduled *obs.Counter
	// Dispatched counts events actually fired.
	Dispatched *obs.Counter
	// Cancelled counts Timer.Cancel transitions.
	Cancelled *obs.Counter
	// Depth tracks the queue depth after every mutation.
	Depth *obs.Gauge
	// Track, when non-nil, receives a virtual-time instant per dispatched
	// event. The hook fires with the scheduler lock held, so it records via
	// InstantAt with the event's own deadline — never by reading Now.
	Track *obs.Track
}

// Scheduler is a virtual-time discrete-event scheduler. Events scheduled for
// the same instant fire in scheduling order (FIFO) unless an Arbiter is
// installed, which gives stable, deterministic traces.
//
// A Scheduler is safe for concurrent use, although the intended model is
// single-threaded: callbacks run on the goroutine that calls Run, Step,
// RunUntil or RunUntilIdle, and may schedule further events.
//
// Internally, pending events live in a binary heap and fired events are
// recycled through a free list, so the steady-state hot path (schedule,
// dispatch, recycle) does not allocate. Timer handles carry a generation
// number so a handle that outlives its event cannot cancel the event's
// pooled successor.
type Scheduler struct {
	mu  sync.Mutex
	now time.Duration
	// nowA mirrors now so Now (the single hottest scheduler call: every
	// modTime stamp and event reads it) never contends on the lock.
	nowA     atomic.Int64
	seq      uint64
	q        heapQueue
	free     []*event
	rng      *rand.Rand
	arbiter  Arbiter
	tagged   TaggedArbiter
	injector fault.Injector
	met      Metrics
	// fpScratch is the reused footprint buffer handed to a TaggedArbiter,
	// so footprint-aware tie-breaking allocates nothing per dispatch.
	fpScratch []Footprint
	fpCheck   FootprintCheck
	// work counts queued events that are neither cancelled nor Ticker
	// ticks. It is kept inside the enqueue, dispatch and Cancel critical
	// sections, so RunUntilIdle reads it without a lock round trip of its
	// own.
	work int
}

// Arbiter chooses which of n same-instant runnable events fires next,
// returning an index into their FIFO (scheduling) order. It is only
// consulted when n > 1; out-of-range returns clamp to the FIFO choice.
// The chaos explorer uses this hook to enumerate every permutation of a
// race window. Arbiters are called with the scheduler's internal lock held
// and must not call back into the scheduler.
type Arbiter func(n int) int

// New returns a Scheduler whose random source is seeded with seed. The same
// seed always yields the same event interleavings and random draws.
func New(seed int64) *Scheduler {
	s := &Scheduler{rng: rand.New(newFastSource(seed))}
	s.q.drop = s.recycle
	return s
}

// Reset rewinds the scheduler to its boot state with a fresh seed: clock at
// zero, queue empty (pending events are discarded), arbiter, fault injector
// and metrics hooks removed, and the random stream re-seeded so draws equal
// those of a brand-new New(seed) scheduler. Allocated queue and pool
// capacity is retained — this is the arena's microsecond-scale alternative
// to rebuilding the object graph.
func (s *Scheduler) Reset(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = 0
	s.nowA.Store(0)
	s.seq = 0
	s.work = 0
	s.q.reset()
	// rand.Rand.Seed reinitializes the underlying source in place (here
	// fastSource restores a cached state vector); the stream is
	// bit-identical to rand.New(rand.NewSource(seed)), which is what makes
	// a reset device's random draws equal a fresh boot's. Pinned by
	// TestFastSourceMatchesMathRand and TestResetRestoresRandomStream.
	s.rng.Seed(seed)
	s.arbiter = nil
	s.tagged = nil
	s.fpCheck = nil
	s.injector = nil
	s.met = Metrics{}
}

// SetArbiter installs (or, with nil, removes) the same-instant tie-break
// hook. Install it before driving the clock: switching arbiters mid-run
// still yields a valid execution, but not one a replay token can name.
func (s *Scheduler) SetArbiter(a Arbiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arbiter = a
	if a != nil {
		s.tagged = nil
	}
}

// SetFaultInjector installs (or, with nil, removes) the fault hook consulted
// whenever an event is scheduled (fault.SiteSimEvent): a fault plan can
// delay, duplicate or drop any event at a chosen virtual time.
func (s *Scheduler) SetFaultInjector(fi fault.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.injector = fi
}

// Instrument installs (or, with the zero Metrics, removes) the
// scheduler's observability hooks. Install before driving the clock.
func (s *Scheduler) Instrument(m Metrics) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = m
}

// Now reports the current virtual time, measured from boot (zero).
func (s *Scheduler) Now() time.Duration {
	return time.Duration(s.nowA.Load())
}

// Pending reports how many events are queued (including cancelled events
// not yet swept from the queue).
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.q.size()
}

// Fingerprint digests the scheduler's dynamic state — clock, sequence
// counter and the multiset of live pending (deadline, seq) pairs — in a
// layout-independent way: schedulers in the same logical state produce
// equal fingerprints however their heaps are arranged. The devicetest
// harness compares these across fresh-boot and arena-reset devices.
func (s *Scheduler) Fingerprint() Fingerprint {
	s.mu.Lock()
	defer s.mu.Unlock()
	fp := Fingerprint{Now: s.now, Seq: s.seq}
	for _, ev := range s.q.h {
		fp.fold(ev)
	}
	return fp
}

// Uint32 draws from the scheduler's seeded source under its lock.
// Components must draw all randomness through the scheduler to stay
// deterministic; the source itself is never handed out because *rand.Rand
// is not safe for concurrent draws.
func (s *Scheduler) Uint32() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Uint32()
}

// Int63n draws a uniform int64 in [0, n) from the seeded source.
func (s *Scheduler) Int63n(n int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Int63n(n)
}

// Float64 draws a uniform float64 in [0, 1) from the seeded source.
func (s *Scheduler) Float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64()
}

// Uniform draws a duration uniformly from [lo, hi]. It panics if hi < lo,
// which always indicates a programming error in a caller's timing model.
func (s *Scheduler) Uniform(lo, hi time.Duration) time.Duration {
	if hi < lo {
		panic(fmt.Sprintf("sim: invalid uniform range [%v, %v]", lo, hi))
	}
	if hi == lo {
		return lo
	}
	return lo + time.Duration(s.Int63n(int64(hi-lo)+1))
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t earlier than Now) clamps to the present: the event fires on the next
// Step. The returned Timer can cancel the event before it fires.
func (s *Scheduler) At(t time.Duration, fn func()) *Timer {
	tm := s.schedule(t, fn, Footprint{}, false)
	return &tm
}

// AtFn schedules fn to run at absolute virtual time t, without returning a
// cancellation handle. Internal call sites that never cancel use this: it
// keeps the steady-state hot path allocation-free (the event struct itself
// is pooled).
func (s *Scheduler) AtFn(t time.Duration, fn func()) {
	s.schedule(t, fn, Footprint{}, false)
}

// schedule is the shared At/AtFn path: probe the fault injector, then
// enqueue. It returns a handle to the queued event. tick marks a Ticker
// re-arm, which RunUntilIdle does not wait for; an injected duplicate
// inherits the mark.
func (s *Scheduler) schedule(t time.Duration, fn func(), fp Footprint, tick bool) Timer {
	s.mu.Lock()
	fi := s.injector
	now := s.now
	s.mu.Unlock()
	if fi != nil {
		// The probe timestamp is the event's effective deadline, so plans
		// can window on when events would fire, not when they are made.
		deadline := t
		if deadline < now {
			deadline = now
		}
		switch act := fi.Probe(fault.SiteSimEvent, "", deadline); act.Kind {
		case fault.KindDelay:
			t += act.Delay
		case fault.KindDrop:
			// Never entered the queue: an inert handle whose Cancel is a
			// no-op.
			return Timer{s: s, at: t}
		case fault.KindDuplicate:
			s.at(t+act.Delay, fn, fp, tick)
		}
	}
	return s.at(t, fn, fp, tick)
}

// at is the enqueue step, without the fault probe (used for injected
// duplicates). The returned handle is built inside the critical section:
// once the lock is released, a drive on another goroutine may fire and
// recycle the event, bumping its generation.
func (s *Scheduler) at(t time.Duration, fn func(), fp Footprint, tick bool) Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t < s.now {
		t = s.now
	}
	ev := s.alloc()
	ev.at = t
	ev.seq = s.seq
	ev.fn = fn
	ev.fp = fp
	ev.cancelled = false
	ev.work = !tick
	if ev.work {
		s.work++
	}
	s.seq++
	s.q.push(ev)
	s.met.Scheduled.Add(1)
	s.met.Depth.Set(int64(s.q.size()))
	return Timer{s: s, ev: ev, gen: ev.gen, at: ev.at}
}

// alloc takes an event from the free list, or makes one. Callers hold s.mu.
func (s *Scheduler) alloc() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle returns a fired or swept event to the free list. Bumping the
// generation invalidates any Timer still holding the event, so a stale
// Cancel cannot kill the event's next incarnation. Callers hold s.mu.
func (s *Scheduler) recycle(ev *event) {
	ev.fn = nil
	ev.fp = Footprint{}
	ev.gen++
	s.free = append(s.free, ev)
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	return s.At(s.Now()+d, fn)
}

// AfterFn schedules fn to run d after the current virtual time, without a
// cancellation handle (see AtFn).
func (s *Scheduler) AfterFn(d time.Duration, fn func()) {
	s.AtFn(s.Now()+d, fn)
}

// Step runs the earliest pending event, advancing the clock to its deadline.
// It reports whether an event ran.
func (s *Scheduler) Step() bool {
	s.mu.Lock()
	ev := s.popRunnable(maxDeadline)
	s.mu.Unlock()
	if ev == nil {
		return false
	}
	s.fire(ev)
	return true
}

// Run executes events until none remain. Callbacks may schedule more events;
// Run returns only once the queue drains.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with deadlines at or before t, then advances the
// clock to t even if the queue drained earlier.
func (s *Scheduler) RunUntil(t time.Duration) { s.RunUntilIdle(t, nil) }

// RunUntilIdle is RunUntil that may return early: once done reports true
// and every event still queued is a Ticker tick, it stops with the clock at
// the last dispatched event. Events scheduled before or by the work that
// made done true still run, ticks included, but ticks after that point are
// not simulated, so a caller uses it when nothing it reads depends on what
// a poller would see next. done is called on the driving goroutine,
// outside the scheduler lock, before the first event and after each one; a
// nil done never reports true, which is RunUntil.
func (s *Scheduler) RunUntilIdle(t time.Duration, done func() bool) {
	idle := done != nil && done()
	for {
		s.mu.Lock()
		if idle && s.work == 0 {
			s.mu.Unlock()
			return
		}
		ev := s.popRunnable(t)
		if ev == nil {
			if s.now < t {
				s.now = t
				s.nowA.Store(int64(t))
			}
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		s.fire(ev)
		idle = done != nil && done()
	}
}

// fire runs one dispatched event's callback outside the lock, then recycles
// the event struct.
func (s *Scheduler) fire(ev *event) {
	fn := ev.fn
	fn()
	s.mu.Lock()
	s.recycle(ev)
	s.mu.Unlock()
}

// popRunnable pops the next non-cancelled event with deadline <= limit and
// advances the clock. With an arbiter installed, every runnable event
// sharing the earliest deadline is collected, the arbiter picks which
// fires, and the rest return to the queue with their scheduling order
// intact. Callers must hold s.mu.
func (s *Scheduler) popRunnable(limit time.Duration) *event {
	if s.arbiter == nil && s.tagged == nil {
		ev := s.q.pop(limit)
		if ev == nil {
			s.met.Depth.Set(int64(s.q.size()))
			return nil
		}
		s.now = ev.at
		s.nowA.Store(int64(ev.at))
		s.dispatched(ev)
		return ev
	}
	cands := s.q.popTies(limit)
	if len(cands) == 0 {
		s.met.Depth.Set(int64(s.q.size()))
		return nil
	}
	idx := 0
	if len(cands) > 1 {
		var pick int
		if s.tagged != nil {
			if cap(s.fpScratch) < len(cands) {
				s.fpScratch = make([]Footprint, len(cands))
			}
			fps := s.fpScratch[:len(cands)]
			for i, ev := range cands {
				fp := ev.fp
				if fp.Kind != FootOpaque && s.fpCheck != nil && !s.fpCheck(fp) {
					fp = Footprint{} // no longer provably confined: opaque
				}
				fps[i] = fp
			}
			pick = s.tagged(len(cands), fps)
		} else {
			pick = s.arbiter(len(cands))
		}
		if pick >= 0 && pick < len(cands) {
			idx = pick
		}
	}
	at := cands[idx].at
	s.now = at
	s.nowA.Store(int64(at))
	chosen := cands[idx]
	for i, ev := range cands {
		if i != idx {
			s.q.push(ev)
		}
	}
	s.dispatched(chosen)
	return chosen
}

// dispatched records one fired event. Callers hold s.mu, so the trace
// instant carries the event's own deadline instead of reading Now (which
// takes the same lock).
func (s *Scheduler) dispatched(ev *event) {
	if ev.work {
		ev.work = false
		s.work--
	}
	s.met.Dispatched.Add(1)
	s.met.Depth.Set(int64(s.q.size()))
	if s.met.Track != nil {
		s.met.Track.InstantAt(ev.at, "dispatch", "")
	}
}

// Timer is a handle to a scheduled event. The handle pins the event's
// deadline and generation at creation, so it stays valid (and harmless)
// after the event fires and its struct is recycled for a later event.
type Timer struct {
	s   *Scheduler
	ev  *event
	gen uint64
	at  time.Duration
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled timer is a no-op.
func (t *Timer) Cancel() {
	if t.ev == nil {
		return // fault-dropped at scheduling time; nothing ever queued
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.ev.gen != t.gen {
		return // the event fired and its struct moved on
	}
	if !t.ev.cancelled {
		t.ev.cancelled = true
		t.s.met.Cancelled.Add(1)
	}
	if t.ev.work {
		t.ev.work = false
		t.s.work--
	}
}

// When reports the virtual time the event is (or was) scheduled for.
func (t *Timer) When() time.Duration { return t.at }

type event struct {
	at        time.Duration
	seq       uint64
	gen       uint64
	fn        func()
	fp        Footprint
	cancelled bool
	// work marks an event counted in Scheduler.work: queued, uncancelled
	// and not a tick. Dispatch and Cancel clear it, so neither a Cancel
	// from inside the event's own callback nor a later sweep counts it
	// twice.
	work bool
}
