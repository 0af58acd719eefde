package experiment

import (
	"fmt"

	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/par"
)

// SuggestionOutcome is one row of the Section VII developer-suggestion
// study: the same attack run against the stock and the hardened profile.
type SuggestionOutcome struct {
	Store            string
	Strategy         attack.Strategy
	StockHijacked    bool
	HardenedHijacked bool
	HardenedClean    bool
}

// SuggestionStudy applies the paper's developer suggestions (prefer
// internal staging; verify on a private copy) to the vulnerable store
// profiles and replays both hijack strategies: the stock profile falls,
// the hardened one does not. The (store, strategy) cells are independent
// worlds, so they fan out on a worker pool of the given size (<= 0 selects
// NumCPU); the outcome order is fixed for any pool size.
func SuggestionStudy(seed int64, workers int) ([]SuggestionOutcome, error) {
	profiles := []installer.Profile{
		installer.Amazon(), installer.Xiaomi(), installer.Baidu(), installer.DTIgnite(),
	}
	type job struct {
		prof     installer.Profile
		strategy attack.Strategy
		index    int64
	}
	var jobs []job
	for _, prof := range profiles {
		strategies := []attack.Strategy{attack.StrategyFileObserver, attack.StrategyWaitAndSee}
		if prof.TempNameRename {
			// The paper attacked Xiaomi via its rename signal (the
			// FileObserver strategy); the generic wait-and-see delay
			// does not apply to its short window.
			strategies = strategies[:1]
		}
		for j, strategy := range strategies {
			jobs = append(jobs, job{prof: prof, strategy: strategy, index: int64(j)})
		}
	}
	return par.Map(workers, len(jobs), func(i int) (SuggestionOutcome, error) {
		jb := jobs[i]
		run := func(p installer.Profile, localSeed int64) (installer.Result, error) {
			s, err := NewScenario(p, localSeed)
			if err != nil {
				return installer.Result{}, err
			}
			res, _, err := s.Hijack(attack.ConfigForStore(jb.prof, jb.strategy))
			return res, err
		}
		// The stock and hardened runs deliberately share one derived seed:
		// the comparison must isolate the profile change from the timing
		// draws.
		localSeed := deriveSeed(seed, "suggestion/"+jb.prof.Package, jb.index)
		stock, err := run(jb.prof, localSeed)
		if err != nil {
			return SuggestionOutcome{}, err
		}
		hardened, err := run(installer.Hardened(jb.prof), localSeed)
		if err != nil {
			return SuggestionOutcome{}, err
		}
		return SuggestionOutcome{
			Store:            jb.prof.Package,
			Strategy:         jb.strategy,
			StockHijacked:    stock.Hijacked,
			HardenedHijacked: hardened.Hijacked,
			HardenedClean:    hardened.Clean(),
		}, nil
	})
}

// SuggestionTable renders the suggestion study.
func SuggestionTable(seed int64, workers int) (Table, error) {
	outcomes, err := SuggestionStudy(seed, workers)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "Suggestion Study",
		Title:  "Section VII developer suggestions vs the hijack attacks",
		Header: []string{"Store", "Strategy", "Stock hijacked", "Hardened hijacked", "Hardened clean"},
	}
	for _, o := range outcomes {
		t.Rows = append(t.Rows, []string{
			o.Store, o.Strategy.String(),
			fmt.Sprintf("%v", o.StockHijacked),
			fmt.Sprintf("%v", o.HardenedHijacked),
			fmt.Sprintf("%v", o.HardenedClean),
		})
	}
	t.Notes = append(t.Notes,
		"hardened = prefer internal staging (Suggestion 1) + verify on a private copy (Suggestion 2)")
	return t, nil
}
