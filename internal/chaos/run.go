package chaos

import (
	"time"

	"github.com/ghost-installer/gia/internal/fault"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/sim"
)

// RunFunc builds one world, attaches it to the run, drives it, and checks
// the invariant. It must construct everything — scheduler, device, apps —
// from r.Seed() alone, call r.Attach on the scheduler (and r.Inject on any
// other substrate it wants faulted) before driving the clock, and return a
// non-nil error exactly when the invariant does not hold for this schedule.
type RunFunc func(r *Run) error

// Run is the harness's view of one execution: the schedule being imposed
// and the fault plan clone serving it.
type Run struct {
	schedule Schedule
	plan     *FaultPlan // nil-safe composite: user rules + jitter rule
	arb      *arbiter
	// track is the run's virtual-time trace lane, named by the imposed
	// schedule's token so exports are deterministic at any worker count.
	// Nil unless the explorer has a Trace attached.
	track *obs.Track
	// state is the pool worker's shared state (Explorer.WorkerState), nil
	// when the explorer has no state factory.
	state any
}

// newRun prepares a run for schedule, deriving the run-local fault plan
// from base (which may be nil).
func newRun(schedule Schedule, base *FaultPlan) *Run {
	plan := base.Clone(schedule.Seed)
	if schedule.Jitter > 0 {
		plan = plan.Extend(schedule.Seed, Rule{
			Site: fault.SiteSimEvent, Kind: fault.KindDelay, MaxJitter: schedule.Jitter,
		})
	}
	return &Run{
		schedule: schedule,
		plan:     plan,
		arb:      &arbiter{prefix: schedule.Choices},
	}
}

// Seed is the scheduler seed the RunFunc must build its world from.
func (r *Run) Seed() int64 { return r.schedule.Seed }

// Jitter reports the event-jitter bound of this run's schedule.
func (r *Run) Jitter() time.Duration { return r.schedule.Jitter }

// Schedule reports the schedule imposed on this run. Calling it after the
// run completes yields the fully resolved choice sequence (the imposed
// prefix plus every default choice actually taken), which is the replay
// token for what happened.
func (r *Run) Schedule() Schedule {
	s := r.schedule.clone()
	if len(r.arb.choices) > 0 {
		s.Choices = append([]int(nil), r.arb.choices...)
	}
	return s
}

// State returns the pool worker's shared state built by the explorer's
// WorkerState factory (nil without one). The canonical use is a device
// arena: the RunFunc acquires a device for r.Seed() instead of booting one.
func (r *Run) State() any { return r.state }

// Hits reports the faults injected so far in this run.
func (r *Run) Hits() []Hit { return r.plan.Hits() }

// Track returns the run's virtual-time trace track — nil (a no-op track)
// unless the explorer carries a Trace. RunFuncs use it to record what the
// schedule did in simulated time: AIT outcomes, timeline exports,
// invariant verdicts.
func (r *Run) Track() *obs.Track { return r.track }

// Attach imposes the run's schedule on s: the arbiter that replays (then
// records) same-instant choices, and the fault plan as s's injector. Call
// it once, before driving the clock.
func (r *Run) Attach(s *sim.Scheduler, targets ...fault.Target) {
	s.SetArbiter(r.arb.choose)
	s.SetFaultInjector(r.plan)
	// Bind the run's trace track to this world's virtual clock, so Begin
	// and Instant read simulated time.
	r.track.SetClock(s.Now)
	r.Inject(targets...)
}

// Inject installs the run's fault plan on additional substrates (vfs.FS,
// dm.Manager, fuse.Daemon, intents.AMS — anything with SetFaultInjector).
func (r *Run) Inject(targets ...fault.Target) {
	for _, t := range targets {
		if t != nil {
			t.SetFaultInjector(r.plan)
		}
	}
}

// arbiter replays a choice prefix and records the full decision trace: the
// choice taken and the branch factor (number of runnable candidates) at
// every contended instant. The explorer reads branches to know where the
// run could have gone differently.
type arbiter struct {
	prefix   []int
	pos      int
	choices  []int
	branches []int
}

// choose implements sim.Arbiter. Within the prefix it replays the recorded
// choice (clamped into range, so stale prefixes stay valid executions);
// past it, FIFO order (index 0).
func (a *arbiter) choose(n int) int {
	c := 0
	if a.pos < len(a.prefix) {
		if pc := a.prefix[a.pos]; pc > 0 && pc < n {
			c = pc
		}
	}
	a.pos++
	a.choices = append(a.choices, c)
	a.branches = append(a.branches, n)
	return c
}
