package sim

import "time"

// This file defines event footprints, the static effect summaries behind
// the chaos explorer's partial-order reduction. A footprint names the one
// resource domain a scheduled callback is allowed to touch; two same-instant
// events whose footprints are provably disjoint commute, so an exploration
// does not need to run both orders.
//
// Tagging contract. Scheduling an event through AtFnTagged/AfterFnTagged
// asserts BOTH of:
//
//  1. the callback's observable effects are confined to the footprint's
//     resource: for FootVFS that is one directory — creating, modifying or
//     removing direct children, reading the listing, and firing that
//     directory's (non-recursive, inotify-style) watchers — plus state
//     private to the callback's owner;
//  2. the callback schedules no follow-up event at the *same* virtual
//     instant, so a tie's candidate set can only shrink while it drains.
//
// Anything weaker must stay untagged: the zero Footprint is opaque and an
// opaque event is treated as conflicting with everything, which makes
// untagged workloads explore exactly as before. Sites that only sometimes
// satisfy the contract (a download's final chunk closes the file, rewrites
// the DM database and runs an arbitrary completion callback) tag the safe
// occurrences and leave the rest opaque.

// FootprintKind names a resource domain. Distinct kinds are disjoint state
// by construction, so events of different (non-opaque) kinds always
// commute; within a kind, the Key must differ.
type FootprintKind uint8

const (
	// FootOpaque is the zero value: effects unknown, conflicts with all.
	FootOpaque FootprintKind = iota
	// FootVFS scopes an event to one directory of the simulated
	// filesystem (see the tagging contract above). The Key is the clean
	// absolute path of that directory — the parent of the file touched,
	// because writes are observable through the parent's watch list.
	FootVFS
	// FootIntent scopes an event to one intent component (Key
	// "pkg/component"): its delivery state and nothing shared.
	FootIntent
	// FootProc scopes an event to one process table entry (Key pkg).
	FootProc
)

// Footprint is an event's effect summary: a resource domain plus the key
// of the single resource touched. The zero value is opaque.
type Footprint struct {
	Kind FootprintKind
	Key  string
}

// Opaque reports whether the footprint carries no commutation claim.
func (f Footprint) Opaque() bool { return f.Kind == FootOpaque }

// Independent reports whether two footprints provably commute: both carry
// a claim and they name different resources. Opaque footprints are never
// independent of anything, including each other.
func (f Footprint) Independent(g Footprint) bool {
	if f.Kind == FootOpaque || g.Kind == FootOpaque {
		return false
	}
	return f.Kind != g.Kind || f.Key != g.Key
}

// FootprintCheck revalidates one footprint at dispatch time, immediately
// before a tie is broken. Tagging happens when an event is scheduled, but
// some confinement conditions are only knowable when it is about to fire —
// a watcher may have been registered on a FootVFS directory in between, or
// a fault rule armed that would bounce the operation onto an error path
// with foreign effects. A false verdict demotes the event to opaque for
// this dispatch (disabling pruning at its tie) rather than risking an
// unsound reduction. Checks run with the scheduler lock held and must not
// call back into the scheduler.
type FootprintCheck func(Footprint) bool

// SetFootprintCheck installs (or, with nil, removes) the dispatch-time
// footprint validator. It is consulted only on the tagged-arbiter path, so
// plain runs never pay for it.
func (s *Scheduler) SetFootprintCheck(c FootprintCheck) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fpCheck = c
}

// TaggedArbiter is an Arbiter that also sees the candidates' footprints,
// indexed in the same FIFO order as the choice it returns. fps is a buffer
// owned by the scheduler, valid only for the duration of the call. Like
// Arbiter, it runs with the scheduler lock held and must not call back in.
type TaggedArbiter func(n int, fps []Footprint) int

// SetTaggedArbiter installs (or, with nil, removes) a footprint-aware
// tie-break hook. It replaces any plain Arbiter, and SetArbiter replaces
// it: a scheduler consults exactly one of the two.
func (s *Scheduler) SetTaggedArbiter(a TaggedArbiter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tagged = a
	if a != nil {
		s.arbiter = nil
	}
}

// AtFnTagged is AtFn with a footprint attached to the scheduled event (see
// the tagging contract above). Fault-injected duplicates inherit the
// footprint: a duplicate has the same effects as its original.
func (s *Scheduler) AtFnTagged(t time.Duration, fp Footprint, fn func()) {
	s.schedule(t, fn, fp, false)
}

// AfterFnTagged is AfterFn with a footprint attached.
func (s *Scheduler) AfterFnTagged(d time.Duration, fp Footprint, fn func()) {
	s.AtFnTagged(s.Now()+d, fp, fn)
}
