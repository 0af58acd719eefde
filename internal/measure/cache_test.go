package measure

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/corpus"
	"github.com/ghost-installer/gia/internal/memo"
)

// TestCachedMatchesUncached is the measure-layer cache-parity oracle: the
// full Scan output — per-app extracted features, per-rule hit counts,
// coverage stats and the resulting classifications — must be identical on
// the shared cached engine and on an uncached reference engine, at one
// worker and at NumCPU workers.
func TestCachedMatchesUncached(t *testing.T) {
	c := corpus.Generate(corpus.Config{Seed: 4242, Scale: 0.05})
	apps := c.PlayApps
	if len(apps) > 500 {
		apps = apps[:500]
	}
	workerCounts := []int{1, runtime.NumCPU()}
	for _, workers := range workerCounts {
		before, _ := engine.CacheStats()
		cachedMetas, cachedStats := Scan(nil, apps, workers)
		cs := cacheDelta(before)
		plainMetas, plainStats := Scan(analysis.NewEngine(), apps, workers)

		if !reflect.DeepEqual(cachedMetas, plainMetas) {
			for i := range cachedMetas {
				if !reflect.DeepEqual(cachedMetas[i], plainMetas[i]) {
					t.Fatalf("workers=%d app %s: cached %+v != uncached %+v",
						workers, apps[i].Package, cachedMetas[i], plainMetas[i])
				}
			}
			t.Fatalf("workers=%d: metas diverge", workers)
		}
		if !reflect.DeepEqual(cachedStats.PerRule, plainStats.PerRule) {
			t.Errorf("workers=%d: per-rule stats diverge: cached %v, uncached %v",
				workers, cachedStats.PerRule, plainStats.PerRule)
		}
		if cachedStats.Stats != plainStats.Stats {
			t.Errorf("workers=%d: coverage stats diverge: cached %+v, uncached %+v",
				workers, cachedStats.Stats, plainStats.Stats)
		}
		if cachedStats.Findings != plainStats.Findings {
			t.Errorf("workers=%d: finding counts diverge: %d vs %d",
				workers, cachedStats.Findings, plainStats.Findings)
		}

		// Classifications agree app by app (and with ground truth).
		for i, m := range cachedMetas {
			if got, want := ClassifyExtracted(m), ClassifyExtracted(plainMetas[i]); got != want {
				t.Fatalf("workers=%d app %s: classified %v cached vs %v uncached",
					workers, apps[i].Package, got, want)
			}
		}

		// The cached run must actually have used the cache, and its
		// outcome counters must account for every file scanned.
		if total := cs.Hits + cs.Misses + cs.Deduped; total != int64(cachedStats.Stats.Files) {
			t.Errorf("workers=%d: cache outcomes %d != files scanned %d",
				workers, total, cachedStats.Stats.Files)
		}
		if cs.Hits == 0 {
			t.Errorf("workers=%d: template corpus produced zero cache hits", workers)
		}
	}
}

// cacheDelta is the shared engine's cache outcomes since before.
func cacheDelta(before memo.Stats) memo.Stats {
	after, _ := engine.CacheStats()
	return memo.Stats{
		Hits:    after.Hits - before.Hits,
		Misses:  after.Misses - before.Misses,
		Deduped: after.Deduped - before.Deduped,
	}
}

// TestCacheCollapsesTemplateCorpus pins the headline property: a
// template-shared corpus collapses to a few dozen distinct analyses, so
// misses stay near the distinct-template count rather than the app count.
func TestCacheCollapsesTemplateCorpus(t *testing.T) {
	c := corpus.Generate(corpus.Config{Seed: 99, Scale: 0.05})
	apps := c.PlayApps
	before, _ := engine.CacheStats()
	_, stats := Scan(nil, apps, 1)
	cs := cacheDelta(before)
	if stats.Stats.Files < len(apps) {
		t.Fatalf("scanned %d files for %d apps", stats.Stats.Files, len(apps))
	}
	hitRate := float64(cs.Hits) / float64(stats.Stats.Files)
	if hitRate < 0.9 {
		t.Errorf("cache hit rate = %.2f over %d files (hits %d, misses %d); template corpus should collapse",
			hitRate, stats.Stats.Files, cs.Hits, cs.Misses)
	}
}
