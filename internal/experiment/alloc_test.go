package experiment

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/ghost-installer/gia/internal/arena"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/installer"
)

// warmSchedule returns one complete Amazon AIT hijack schedule on a warm
// arena device, each call on the next seed, after running it once: the
// first acquisition boots the device, the payload's target and its
// scenario fixture (store image, malware kit and replacement) are built
// into NewScenarioPayloadOn's one-entry memos, and the decode cache fills.
func warmSchedule(t *testing.T, strategy attack.Strategy, payload []byte) func() {
	t.Helper()
	a := arena.New(ScenarioDeviceProfile(0))
	prof := installer.Amazon()
	seed := int64(0)
	one := func() {
		seed++
		dev, err := a.Acquire(seed)
		if err != nil {
			t.Fatalf("acquire: %v", err)
		}
		s, err := NewScenarioPayloadOn(dev, prof, payload)
		if err != nil {
			t.Fatalf("scenario: %v", err)
		}
		atk := attack.NewTOCTOU(s.Mal, attack.ConfigForStore(prof, strategy), s.Target)
		if err := atk.Launch(); err != nil {
			t.Fatalf("launch: %v", err)
		}
		res := s.RunAIT()
		atk.Stop()
		a.Release(dev)
		if !res.Hijacked {
			t.Fatalf("hijack missed under seed %d: %v", seed, res.Err)
		}
	}
	one()
	return one
}

// TestAITAllocBudget pins the allocation cost of one complete AIT hijack
// schedule on a warm arena device — the unit of work every chaos sweep and
// study repeats thousands of times. The budget is deliberately loose
// against run-to-run jitter (map growth thresholds, pooled capacities) but
// tight enough to catch a regression that reintroduces per-schedule
// device rebuilding or payload copying.
func TestAITAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	one := warmSchedule(t, attack.StrategyFileObserver, nil)
	perAIT := testing.AllocsPerRun(100, one)
	// Measured 78 objects/schedule; ~2.5x headroom.
	const budget = 200.0
	if perAIT > budget {
		t.Fatalf("one AIT schedule allocates %.0f objects, budget %.0f", perAIT, budget)
	}
	t.Logf("per-AIT allocations: %.0f (budget %.0f)", perAIT, budget)
}

// TestOrdersAllocBudget pins the cost of one schedule of the explore-orders
// workload's transaction: the wait-and-see poller against a 900 KiB,
// 15-chunk download. Both budgets sit at ~2.5x the measured value, so one
// copy of the payload (900 KiB) or a drive that keeps ticking the poller
// after the install (three objects per 50 ms tick to the 2-minute horizon)
// fails it.
func TestOrdersAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	one := warmSchedule(t, attack.StrategyWaitAndSee, bytes.Repeat([]byte("x"), 900<<10))
	objects := testing.AllocsPerRun(50, one)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		one()
	}
	runtime.ReadMemStats(&after)
	perSchedule := float64(after.TotalAlloc-before.TotalAlloc) / runs
	// Measured 125 objects and ~9.5 KB per schedule; before the drive ended
	// at quiescence and the download stopped copying, ~7,300 and ~4.5 MB.
	const objectBudget, byteBudget = 400.0, 25_000.0
	t.Logf("per-schedule allocations: %.0f objects (budget %.0f), %.0f bytes (budget %.0f)",
		objects, objectBudget, perSchedule, byteBudget)
	if objects > objectBudget {
		t.Fatalf("one orders schedule allocates %.0f objects, budget %.0f", objects, objectBudget)
	}
	if perSchedule > byteBudget {
		t.Fatalf("one orders schedule allocates %.0f bytes, budget %.0f", perSchedule, byteBudget)
	}
}
