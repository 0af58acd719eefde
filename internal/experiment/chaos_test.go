package experiment

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/installer"
)

// TestExplorationStudy pins the chaos study's shape: the orderings row
// explores a real choice tree with no violations, both 1000-schedule sweeps
// are flake-free, and the truncation fault flips the hijack outcome into a
// minimized, replayable token.
func TestExplorationStudy(t *testing.T) {
	rows, err := ExplorationStudy(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	byName := map[string]ExplorationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}

	ord := byName["exhaustive orderings (wait-and-see)"]
	if ord.MaxBranch < 2 {
		t.Errorf("orderings row found no same-instant ties (MaxBranch=%d)", ord.MaxBranch)
	}
	if ord.Explored < 4 || ord.Truncated {
		t.Errorf("orderings row explored %d (truncated=%v), want an untruncated tree", ord.Explored, ord.Truncated)
	}
	if ord.Violated != 0 {
		t.Errorf("orderings row: %d violations (token %s); hijack should land under every ordering", ord.Violated, ord.Token)
	}

	for _, name := range []string{"seed x jitter sweep (legacy)", "seed x jitter sweep (FUSE patch)"} {
		row := byName[name]
		if row.Explored != 1000 {
			t.Errorf("%s: explored %d schedules, want 1000", name, row.Explored)
		}
		if row.Violated != 0 {
			t.Errorf("%s: %d violations (token %s); the invariant flaked", name, row.Violated, row.Token)
		}
	}

	fr := byName["truncated download fault"]
	if fr.Violated != 1 {
		t.Fatalf("fault row: %d violations, want exactly 1 (the injected truncation)", fr.Violated)
	}
	if fr.Token == "-" {
		t.Fatal("fault row produced no replay token")
	}
	if _, err := chaos.ParseToken(fr.Token); err != nil {
		t.Fatalf("fault row token %q does not parse: %v", fr.Token, err)
	}
	if !fr.Replayed {
		t.Errorf("fault row token %s did not reproduce the violation on replay", fr.Token)
	}
}

// TestPORSoundnessGoldenWorkload diffs POR-reduced against exhaustive
// exploration on the real wait-and-see AIT workload (the orderings row of
// the chaos study): identical violation sets on a genuinely-branching choice
// tree, with the reduced walk never exploring more schedules. The staging
// directory is watched by the attacker for the whole race, so the
// dispatch-time footprint check keeps most ties opaque here — the gate
// checks soundness on the golden world, not that pruning fires (the
// synthetic worlds in internal/chaos pin that).
func TestPORSoundnessGoldenWorkload(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 900<<10)
	fn := HijackPayloadRunFunc(installer.Amazon(), attack.StrategyWaitAndSee, payload)
	explore := func(disablePOR bool) *chaos.Result {
		ex := &chaos.Explorer{
			Workers: 0, MaxSchedules: 2000, DisablePOR: disablePOR,
			Plan:        chaos.Quantize(10*time.Millisecond, 0, 0),
			WorkerState: ArenaWorkerState(nil),
		}
		return ex.ExploreOrders(chaos.Schedule{Seed: 1}, fn)
	}
	red, exh := explore(false), explore(true)
	if exh.MaxBranch < 2 || exh.Explored < 4 || exh.Truncated {
		t.Fatalf("exhaustive walk has no real branching: %+v", exh)
	}
	if red.Explored > exh.Explored {
		t.Errorf("reduced explored %d > exhaustive %d", red.Explored, exh.Explored)
	}
	if red.Violations != 0 || exh.Violations != 0 {
		t.Errorf("violation sets diverge: reduced %d, exhaustive %d (hijack must land on every ordering)",
			red.Violations, exh.Violations)
	}
	if red.MaxBranch != exh.MaxBranch {
		t.Errorf("MaxBranch: reduced %d, exhaustive %d", red.MaxBranch, exh.MaxBranch)
	}
	t.Logf("golden workload: exhaustive %d schedules, reduced %d (+%d POR-skipped)",
		exh.Explored, red.Explored, red.PORSkipped)
}

// TestChaosTable smoke-checks the rendered table.
func TestChaosTable(t *testing.T) {
	tbl, err := ChaosTable(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tbl.Rows))
	}
	out := tbl.Render()
	for _, want := range []string{"Chaos Study", "gia1:", "(replays)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
