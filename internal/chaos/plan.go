// Package chaos is the schedule-exploration and fault-injection harness for
// the AIT simulator. It has two halves:
//
//   - FaultPlan: a declarative list of faults (I/O errors, delayed or
//     duplicated events, truncated downloads, dropped Intents) injected
//     deterministically at chosen virtual times through the fault.Injector
//     hooks threaded through sim, vfs, dm, fuse and intents.
//
//   - Explorer: a bounded-worker schedule explorer that enumerates every
//     permutation of same-instant event orderings (via the scheduler's
//     Arbiter hook) or sweeps a seed × jitter grid, checks a user-supplied
//     invariant over every explored schedule, and minimises the first
//     violating schedule to a compact replay token.
//
// Both halves are deterministic: the same Schedule (seed, jitter, choice
// sequence) and the same FaultPlan always reproduce the same execution,
// which is what makes a violation token worth printing.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/ghost-installer/gia/internal/fault"
)

// Rule describes one fault: where it fires, when, how often, and what it
// does. The zero Match matches every subject at the site.
type Rule struct {
	// Site selects the injection point (see the fault package constants).
	Site fault.Site
	// Match narrows the rule to subjects containing this substring: a path
	// for vfs/dm/fuse sites, "sender->pkg/component" for intent delivery,
	// "action->pkg" for broadcasts. Empty matches everything.
	Match string
	// After suppresses the rule before this virtual time.
	After time.Duration
	// Before suppresses the rule at or beyond this virtual time (zero
	// means no upper bound).
	Before time.Duration
	// Skip lets the first N matching probes pass before the rule arms.
	// "Fail the third chunk write" is Skip: 2.
	Skip int
	// Count caps how many times the rule fires (zero means unlimited).
	Count int

	// Kind is the injected fault kind. KindDelay and KindDuplicate read
	// Delay (or draw from [0, MaxJitter] when MaxJitter is set); KindError
	// reads Err.
	Kind  fault.Kind
	Err   error
	Delay time.Duration
	// MaxJitter, when nonzero, replaces Delay with a uniform draw from
	// [0, MaxJitter] on the plan's own seeded source — the knob the
	// Explorer's jitter sweeps turn.
	MaxJitter time.Duration
	// SnapTo, when nonzero on a KindDelay rule at fault.SiteSimEvent,
	// replaces Delay with whatever shift rounds the event's deadline up to
	// the next SnapTo boundary. Quantizing deadlines forces otherwise
	//-nearby events onto the same instant — the contention the Explorer's
	// ordering enumeration needs to have something to permute.
	SnapTo time.Duration
}

// Hit records one fault actually injected during a run.
type Hit struct {
	Site    fault.Site
	Subject string
	At      time.Duration
	Kind    fault.Kind
}

func (h Hit) String() string {
	return fmt.Sprintf("%s %s@%v %q", h.Kind, h.Site, h.At, h.Subject)
}

// FaultPlan evaluates rules in order and injects the first that matches.
// A plan carries per-rule counters and a seeded random source, so it is
// single-use: hand each run its own Clone. Plans are not safe for
// concurrent probing — the simulator model is single-threaded.
type FaultPlan struct {
	rules   []Rule
	skipped []int
	fired   []int
	seed    int64
	rng     *rand.Rand // seeded lazily: most plans never draw jitter
	hits    []Hit
}

// NewFaultPlan builds a plan from rules, seeded with seed (only used when a
// rule draws jitter).
func NewFaultPlan(seed int64, rules ...Rule) *FaultPlan {
	return &FaultPlan{
		rules:   rules,
		skipped: make([]int, len(rules)),
		fired:   make([]int, len(rules)),
		seed:    seed,
	}
}

// Jitter returns a plan that delays every scheduled event by a uniform draw
// from [0, max] — the perturbation the Explorer sweeps to shake out timing
// assumptions. A zero max yields an empty (but valid) plan.
func Jitter(seed int64, max time.Duration) *FaultPlan {
	if max <= 0 {
		return NewFaultPlan(seed)
	}
	return NewFaultPlan(seed, Rule{
		Site: fault.SiteSimEvent, Kind: fault.KindDelay, MaxJitter: max,
	})
}

// Quantize returns a plan that rounds every event deadline in [after,
// before) up to a multiple of grid, forcing nearby events onto shared
// instants so the Explorer's ordering enumeration has ties to permute.
func Quantize(grid time.Duration, after, before time.Duration) *FaultPlan {
	return NewFaultPlan(0, Rule{
		Site: fault.SiteSimEvent, Kind: fault.KindDelay,
		SnapTo: grid, After: after, Before: before,
	})
}

// Clone returns a fresh plan with the same rules, zeroed counters, an empty
// hit log and a source re-seeded with seed. Each explored schedule gets its
// own clone so runs never share mutable state.
func (p *FaultPlan) Clone(seed int64) *FaultPlan {
	if p == nil {
		return NewFaultPlan(seed)
	}
	return NewFaultPlan(seed, p.rules...)
}

// Extend returns a new plan holding p's rules plus more, preserving p's
// evaluation order. The receiver is unchanged.
func (p *FaultPlan) Extend(seed int64, more ...Rule) *FaultPlan {
	var rules []Rule
	if p != nil {
		rules = append(rules, p.rules...)
	}
	rules = append(rules, more...)
	return NewFaultPlan(seed, rules...)
}

// Rules returns a copy of the plan's rule list.
func (p *FaultPlan) Rules() []Rule {
	if p == nil {
		return nil
	}
	return append([]Rule(nil), p.rules...)
}

// Hits returns the faults injected so far, in probe order.
func (p *FaultPlan) Hits() []Hit {
	if p == nil {
		return nil
	}
	return append([]Hit(nil), p.hits...)
}

var _ fault.Injector = (*FaultPlan)(nil)

// Probe implements fault.Injector: the first matching, armed rule fires.
func (p *FaultPlan) Probe(site fault.Site, subject string, now time.Duration) fault.Action {
	if p == nil {
		return fault.None
	}
	for i := range p.rules {
		r := &p.rules[i]
		if r.Site != site || r.Kind == fault.KindNone {
			continue
		}
		if r.Match != "" && !strings.Contains(subject, r.Match) {
			continue
		}
		if now < r.After || (r.Before > 0 && now >= r.Before) {
			continue
		}
		if p.skipped[i] < r.Skip {
			p.skipped[i]++
			continue
		}
		if r.Count > 0 && p.fired[i] >= r.Count {
			continue
		}
		p.fired[i]++
		act := fault.Action{Kind: r.Kind, Err: r.Err, Delay: r.Delay}
		if r.MaxJitter > 0 {
			if p.rng == nil {
				// First jitter draw of the plan's life: seeding here rather
				// than in NewFaultPlan keeps jitter-free plans (the common
				// case) from paying math/rand's full state initialization.
				p.rng = rand.New(rand.NewSource(p.seed))
			}
			act.Delay = time.Duration(p.rng.Int63n(int64(r.MaxJitter) + 1))
		}
		if r.SnapTo > 0 {
			act.Delay = (r.SnapTo - now%r.SnapTo) % r.SnapTo
		}
		if act.Kind == fault.KindError && act.Err == nil {
			act.Err = fault.ErrInjected
		}
		p.hits = append(p.hits, Hit{Site: site, Subject: subject, At: now, Kind: r.Kind})
		return act
	}
	return fault.None
}
