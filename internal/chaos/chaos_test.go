package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/fault"
	"github.com/ghost-installer/gia/internal/sim"
)

// tieWorld schedules n events at the same instant and reports the order in
// which they fired as a string like "abc".
func tieWorld(r *Run, n int) string {
	s := sim.New(r.Seed())
	r.Attach(s)
	var order []byte
	for i := 0; i < n; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, byte('a'+i)) })
	}
	s.Run()
	return string(order)
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// TestExploreOrdersEnumeratesAllPermutations proves the DFS visits every
// one of the N! orderings of an N-wide same-instant tie exactly once, for
// every N the acceptance bar names.
func TestExploreOrdersEnumeratesAllPermutations(t *testing.T) {
	for n := 1; n <= 5; n++ {
		n := n
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			var mu sync.Mutex
			seen := make(map[string]int)
			ex := &Explorer{Workers: 4}
			res := ex.ExploreOrders(Schedule{Seed: 1}, func(r *Run) error {
				order := tieWorld(r, n)
				mu.Lock()
				seen[order]++
				mu.Unlock()
				return nil
			})
			want := factorial(n)
			if res.Explored != want {
				t.Fatalf("explored %d schedules, want %d!=%d", res.Explored, n, want)
			}
			if len(seen) != want {
				t.Fatalf("saw %d distinct orderings, want %d", len(seen), want)
			}
			for order, count := range seen {
				if count != 1 {
					t.Errorf("ordering %q explored %d times, want exactly once", order, count)
				}
			}
			if res.Violations != 0 || res.First != nil {
				t.Errorf("unexpected violations: %+v", res)
			}
			if n > 1 && res.MaxBranch != n {
				t.Errorf("MaxBranch = %d, want %d", res.MaxBranch, n)
			}
		})
	}

	// Ties at successive instants multiply: each of the 3! orderings of a
	// tie at 1ms is combined with both orderings of a tie at 2ms, and a
	// violation decided only by the second tie shows up in half of them.
	t.Run("N=3,then2", func(t *testing.T) {
		var mu sync.Mutex
		seen := make(map[string]int)
		ex := &Explorer{Workers: 4}
		res := ex.ExploreOrders(Schedule{Seed: 5}, func(r *Run) error {
			s := sim.New(r.Seed())
			r.Attach(s)
			var order []byte
			for i, at := range []time.Duration{1, 1, 1, 2, 2} {
				c := byte('a' + i)
				s.At(at*time.Millisecond, func() { order = append(order, c) })
			}
			s.Run()
			mu.Lock()
			seen[string(order)]++
			mu.Unlock()
			if order[3] == 'e' {
				return fmt.Errorf("second instant inverted in %q", order)
			}
			return nil
		})
		if res.Explored != 12 || len(seen) != 12 || res.Violations != 6 || res.MaxBranch != 3 {
			t.Fatalf("result %+v over %d distinct orderings, want 12 explored and distinct, 6 violations, MaxBranch 3",
				res, len(seen))
		}
		if got := res.First.Schedule.Token(); got != "gia1:5:0s:0.0.1" {
			t.Errorf("First = %s, want gia1:5:0s:0.0.1", got)
		}
	})
}

// TestExploreOrdersSingleWorkerMatches re-runs the N=4 enumeration with one
// worker: same count, same canonical result.
func TestExploreOrdersSingleWorkerMatches(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ex := &Explorer{Workers: workers}
		res := ex.ExploreOrders(Schedule{Seed: 7}, func(r *Run) error {
			if order := tieWorld(r, 4); order[0] == 'd' {
				return fmt.Errorf("d fired first in %q", order)
			}
			return nil
		})
		if res.Explored != 24 {
			t.Fatalf("workers=%d: explored %d, want 24", workers, res.Explored)
		}
		if res.Violations != 6 { // d first, 3! arrangements of the rest
			t.Fatalf("workers=%d: %d violations, want 6", workers, res.Violations)
		}
		if res.First == nil {
			t.Fatal("no First violation")
		}
		// Canonical minimal violating prefix: pick index 3 (event d) at the
		// only contended instant, then FIFO — regardless of worker count.
		if got := res.First.Schedule.Token(); got != "gia1:7:0s:3" {
			t.Errorf("workers=%d: First = %s, want gia1:7:0s:3", workers, got)
		}
	}
}

func TestMaxSchedulesTruncates(t *testing.T) {
	ex := &Explorer{Workers: 1, MaxSchedules: 5}
	res := ex.ExploreOrders(Schedule{Seed: 1}, func(r *Run) error {
		tieWorld(r, 4)
		return nil
	})
	if res.Explored != 5 {
		t.Fatalf("explored %d, want 5", res.Explored)
	}
	if !res.Truncated {
		t.Error("Truncated not set")
	}
}

// TestExploreOrdersResultIndependentOfWorkers pins the frontier's
// contract: the explorer's entire Result — counts, canonical First token,
// branching stats — is identical at 1 worker and at NumCPU workers, even
// though which worker runs which schedule is timing-dependent. Run under
// -race this is also the data-race gate for the shared frontier.
func TestExploreOrdersResultIndependentOfWorkers(t *testing.T) {
	run := func(workers int) *Result {
		ex := &Explorer{Workers: workers}
		return ex.ExploreOrders(Schedule{Seed: 9}, func(r *Run) error {
			if order := tieWorld(r, 5); order[0] == 'c' {
				return fmt.Errorf("c fired first in %q", order)
			}
			return nil
		})
	}
	serial := run(1)
	parallel := run(runtime.NumCPU())
	if serial.Explored != 120 || serial.Violations != 24 {
		t.Fatalf("serial baseline = %+v, want 120 explored, 24 violations", serial)
	}
	if parallel.Explored != serial.Explored ||
		parallel.Violations != serial.Violations ||
		parallel.MaxBranch != serial.MaxBranch ||
		parallel.Truncated != serial.Truncated {
		t.Errorf("results diverge:\n 1 worker: %+v\n%d workers: %+v", serial, runtime.NumCPU(), parallel)
	}
	if serial.First == nil || parallel.First == nil {
		t.Fatal("missing First violation")
	}
	if st, pt := serial.First.Schedule.Token(), parallel.First.Schedule.Token(); st != pt {
		t.Errorf("First token: 1 worker %s, %d workers %s", st, runtime.NumCPU(), pt)
	}
	if got, want := serial.First.Schedule.Token(), "gia1:9:0s:2"; got != want {
		t.Errorf("canonical First = %s, want %s", got, want)
	}
}

// TestMaxSchedulesExactUnderConcurrency re-checks the MaxSchedules cap with
// every worker racing to claim queued schedules: the cap must hold exactly
// — not approximately — and Truncated must report the dropped remainder.
func TestMaxSchedulesExactUnderConcurrency(t *testing.T) {
	const cap = 37 // inside the 120-schedule tree, never on a boundary
	ex := &Explorer{Workers: runtime.NumCPU(), MaxSchedules: cap}
	res := ex.ExploreOrders(Schedule{Seed: 1}, func(r *Run) error {
		tieWorld(r, 5)
		return nil
	})
	if res.Explored != cap {
		t.Fatalf("explored %d schedules, want exactly %d", res.Explored, cap)
	}
	if !res.Truncated {
		t.Error("Truncated not set on a capped exploration")
	}
}

func TestTokenRoundTrip(t *testing.T) {
	cases := []Schedule{
		{},
		{Seed: 42},
		{Seed: -9, Jitter: 1500 * time.Microsecond},
		{Seed: 7, Jitter: 5 * time.Millisecond, Choices: []int{0, 2, 1, 10}},
	}
	for _, want := range cases {
		got, err := ParseToken(want.Token())
		if err != nil {
			t.Fatalf("ParseToken(%q): %v", want.Token(), err)
		}
		if got.Seed != want.Seed || got.Jitter != want.Jitter || !reflect.DeepEqual(got.Choices, want.Choices) {
			t.Errorf("round trip %q -> %+v, want %+v", want.Token(), got, want)
		}
	}
	for _, bad := range []string{"", "gia1:1:2", "nope:1:0s:-", "gia1:x:0s:-", "gia1:1:xs:-", "gia1:1:0s:1.x", "gia1:1:0s:-1"} {
		if _, err := ParseToken(bad); err == nil {
			t.Errorf("ParseToken(%q) accepted", bad)
		}
	}
}

// traceWorld drives a jittered, fault-injected scheduler and returns the
// exact firing trace, for determinism checks.
func traceWorld(r *Run) string {
	s := sim.New(r.Seed())
	r.Attach(s)
	var trace string
	for i := 0; i < 6; i++ {
		i := i
		s.At(time.Duration(i%3)*time.Millisecond, func() {
			trace += fmt.Sprintf("%d@%v;", i, s.Now())
		})
	}
	s.Run()
	return trace
}

// TestReplayIsBitIdentical runs the same schedule (with jitter and a
// duplicate-injecting fault plan) twice and demands identical traces.
func TestReplayIsBitIdentical(t *testing.T) {
	ex := &Explorer{
		Workers: 1,
		Plan: NewFaultPlan(0, Rule{
			Site: fault.SiteSimEvent, Kind: fault.KindDuplicate,
			Delay: 100 * time.Microsecond, Skip: 2, Count: 2,
		}),
	}
	sched := Schedule{Seed: 11, Jitter: 700 * time.Microsecond, Choices: []int{1}}
	var traces []string
	for i := 0; i < 3; i++ {
		_, err := ex.Check(sched, func(r *Run) error {
			traces = append(traces, traceWorld(r))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if traces[0] != traces[1] || traces[1] != traces[2] {
		t.Fatalf("replays diverged:\n%s\n%s\n%s", traces[0], traces[1], traces[2])
	}
	if traces[0] == "" {
		t.Fatal("empty trace")
	}
}

// TestReplayToken checks that a token string round-trips through Replay.
func TestReplayToken(t *testing.T) {
	ex := &Explorer{Workers: 1}
	boom := errors.New("boom")
	s, err := ex.Replay("gia1:3:0s:1", func(r *Run) error {
		if order := tieWorld(r, 2); order != "ba" {
			return nil
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("replayed schedule did not reproduce: err=%v", err)
	}
	if s.Token() != "gia1:3:0s:1" {
		t.Errorf("resolved token = %s", s.Token())
	}
}

// TestMinimize plants a violation that needs only the last of three imposed
// choices and checks the shrink finds the one-choice token.
func TestMinimize(t *testing.T) {
	ex := &Explorer{Workers: 1}
	// Two consecutive contended instants of width 2; the invariant breaks
	// iff the second instant fires out of FIFO order.
	fn := func(r *Run) error {
		s := sim.New(r.Seed())
		r.Attach(s)
		var second string
		mk := func(at time.Duration, id string, rec *string) {
			s.At(at, func() { *rec += id })
		}
		var first string
		mk(time.Millisecond, "a", &first)
		mk(time.Millisecond, "b", &first)
		mk(2*time.Millisecond, "c", &second)
		mk(2*time.Millisecond, "d", &second)
		s.Run()
		if second == "dc" {
			return errors.New("second instant inverted")
		}
		return nil
	}
	victim := Schedule{Seed: 5, Choices: []int{1, 1}}
	if _, err := ex.Check(victim, fn); err == nil {
		t.Fatal("victim schedule does not violate; test is vacuous")
	}
	min := ex.Minimize(victim, fn)
	if got, want := min.Token(), "gia1:5:0s:0.1"; got != want {
		t.Errorf("minimized to %s, want %s", got, want)
	}
	if _, err := ex.Check(min, fn); err == nil {
		t.Error("minimized schedule no longer violates")
	}
}

// TestSweepDeterministicFirst checks grid sweeps report the row-major first
// violation regardless of worker count, and that clones isolate fault state.
func TestSweepDeterministicFirst(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	jitters := []time.Duration{0, time.Millisecond}
	fn := func(r *Run) error {
		s := sim.New(r.Seed())
		r.Attach(s)
		fired := false
		s.At(time.Millisecond, func() { fired = true })
		s.Run()
		if !fired {
			return errors.New("event dropped")
		}
		return nil
	}
	plan := NewFaultPlan(0, Rule{Site: fault.SiteSimEvent, Kind: fault.KindDrop, Count: 1})
	var first string
	for _, workers := range []int{1, 4} {
		ex := &Explorer{Workers: workers, Plan: plan}
		res := ex.Sweep(seeds, jitters, fn)
		if res.Explored != len(seeds)*len(jitters) {
			t.Fatalf("explored %d, want %d", res.Explored, len(seeds)*len(jitters))
		}
		// The drop rule clones per run, so it fires in every cell.
		if res.Violations != res.Explored {
			t.Fatalf("violations %d, want %d (plan state leaked between runs?)", res.Violations, res.Explored)
		}
		if res.First == nil {
			t.Fatal("no First")
		}
		tok := res.First.Schedule.Token()
		if first == "" {
			first = tok
		} else if tok != first {
			t.Errorf("workers=%d: First %s != %s", workers, tok, first)
		}
	}
	if want := (Schedule{Seed: 1}).Token(); first != want {
		t.Errorf("First = %s, want row-major first cell %s", first, want)
	}
}

// TestFaultPlanWindows exercises Match/After/Before/Skip/Count arithmetic.
func TestFaultPlanWindows(t *testing.T) {
	p := NewFaultPlan(1,
		Rule{Site: fault.SiteVFSWrite, Match: "/sdcard/", After: 10, Before: 20, Skip: 1, Count: 2, Kind: fault.KindError},
	)
	probe := func(subject string, now time.Duration) fault.Kind {
		return p.Probe(fault.SiteVFSWrite, subject, now).Kind
	}
	if got := probe("/data/x", 15); got != fault.KindNone {
		t.Errorf("wrong subject fired: %v", got)
	}
	if got := probe("/sdcard/x", 5); got != fault.KindNone {
		t.Errorf("before window fired: %v", got)
	}
	if got := probe("/sdcard/x", 25); got != fault.KindNone {
		t.Errorf("after window fired: %v", got)
	}
	if got := probe("/sdcard/x", 15); got != fault.KindNone {
		t.Errorf("skip not honoured: %v", got)
	}
	if got := probe("/sdcard/x", 15); got != fault.KindError {
		t.Errorf("first armed probe: %v, want error", got)
	}
	if got := p.Probe(fault.SiteVFSWrite, "/sdcard/x", 15); !errors.Is(got.Err, fault.ErrInjected) {
		t.Errorf("default error = %v, want ErrInjected", got.Err)
	}
	if got := probe("/sdcard/x", 15); got != fault.KindNone {
		t.Errorf("count not honoured: %v", got)
	}
	hits := p.Hits()
	if len(hits) != 2 {
		t.Fatalf("%d hits, want 2", len(hits))
	}
	if hits[0].Subject != "/sdcard/x" || hits[0].At != 15 || hits[0].Kind != fault.KindError {
		t.Errorf("hit[0] = %+v", hits[0])
	}
}
