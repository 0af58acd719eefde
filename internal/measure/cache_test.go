package measure

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/corpus"
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
		cachedMetas, cachedStats := Scan(nil, apps, workers)
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
		total := cachedStats.CacheHits + cachedStats.CacheMisses + cachedStats.CacheDeduped
		if total != cachedStats.Stats.Files {
			t.Errorf("workers=%d: cache outcomes %d != files scanned %d",
				workers, total, cachedStats.Stats.Files)
		}
		if cachedStats.CacheHits == 0 {
			t.Errorf("workers=%d: template corpus produced zero cache hits", workers)
		}
		if plainStats.CacheHits+plainStats.CacheMisses+plainStats.CacheDeduped != 0 {
			t.Errorf("workers=%d: uncached scan reported cache outcomes: %+v", workers, plainStats)
		}
	}
}

// TestCacheCollapsesTemplateCorpus pins the headline property: a
// template-shared corpus collapses to a few dozen distinct analyses, so
// misses stay near the distinct-template count rather than the app count.
func TestCacheCollapsesTemplateCorpus(t *testing.T) {
	c := corpus.Generate(corpus.Config{Seed: 99, Scale: 0.05})
	apps := c.PlayApps
	_, stats := Scan(nil, apps, 1)
	if stats.Stats.Files < len(apps) {
		t.Fatalf("scanned %d files for %d apps", stats.Stats.Files, len(apps))
	}
	hitRate := float64(stats.CacheHits) / float64(stats.Stats.Files)
	if hitRate < 0.9 {
		t.Errorf("cache hit rate = %.2f over %d files (hits %d, misses %d); template corpus should collapse",
			hitRate, stats.Stats.Files, stats.CacheHits, stats.CacheMisses)
	}
}
