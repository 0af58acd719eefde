package analysis

import (
	"github.com/ghost-installer/gia/internal/memo"
	"github.com/ghost-installer/gia/internal/obs"
)

// EngineOptions configure optional engine behaviour. The zero value is a
// plain uncached engine, identical to NewEngine.
type EngineOptions struct {
	// CacheCapacity > 0 enables the content-addressed analysis cache,
	// bounded (LRU) to roughly that many distinct canonical sources.
	// Template-shared corpora collapse to a few dozen entries, so even a
	// small capacity turns a corpus re-scan into hash-and-rehydrate work.
	// The canonicalizer guards the markers of DefaultRules
	// (DefaultCanonMarkers): an engine whose custom rules match on other
	// substrings or constants must run uncached.
	CacheCapacity int
	// Registry, when non-nil, re-homes the engine's telemetry onto it:
	// scan counters under "analysis.scan.*" and — with the cache enabled —
	// the analysis memo layer under "analysis.cache.canon.*". Equivalent to
	// calling Observe afterwards.
	Registry *obs.Registry
}

// NewEngineWithOptions builds an engine with the given options; with no
// rules it loads DefaultRules. A cached engine produces byte-identical
// findings and stats to an uncached one — the cache only changes how often
// the analyses actually run.
func NewEngineWithOptions(o EngineOptions, rules ...Rule) *Engine {
	e := NewEngine(rules...)
	if o.CacheCapacity > 0 {
		e.cache = &sourceCache{
			canon: NewCanonicalizer(DefaultCanonMarkers()),
			table: memo.New[cachedSource](o.CacheCapacity),
		}
	}
	e.Observe(o.Registry)
	return e
}

// Observe re-homes the engine's telemetry onto reg: the per-scan counters
// ("analysis.scan.files", ".instructions", ".findings", ".parse_errors")
// plus, on a cached engine, its memo table, whose
// "analysis.cache.canon.hits/misses/deduped" are the per-file cache
// outcomes. Values accumulated so far carry over. Call it before scanning
// concurrently; a nil registry is a no-op.
func (e *Engine) Observe(reg *obs.Registry) {
	if e == nil || reg == nil {
		return
	}
	obs.Rehome(reg, "analysis.scan.files", &e.met.files)
	obs.Rehome(reg, "analysis.scan.instructions", &e.met.instructions)
	obs.Rehome(reg, "analysis.scan.findings", &e.met.findings)
	obs.Rehome(reg, "analysis.scan.parse_errors", &e.met.parseErrors)
	if e.cache != nil {
		e.cache.table.Observe(reg, "analysis.cache.canon")
	}
}

// CacheStats snapshots the engine's analysis-cache counters. ok is false
// for an uncached engine.
func (e *Engine) CacheStats() (st memo.Stats, ok bool) {
	if e.cache == nil {
		return memo.Stats{}, false
	}
	return e.cache.table.Stats(), true
}

// cachedSource is one memoized analysis: the findings and stats of the
// canonical source. Findings still carry placeholders (and the file name
// of whichever artifact missed first); rehydrate fixes both per caller.
type cachedSource struct {
	findings []Finding
	stats    Stats
}

// sourceCache is the engine's content-addressed analysis cache. It keys on
// canonicalized bytes, which collapses template-shared corpora to a few
// dozen distinct analyses on first contact; rehydrate re-attributes each
// served analysis to the requesting file.
type sourceCache struct {
	canon *Canonicalizer
	table *memo.Table[cachedSource]
}

// analyze serves one file through the cache: canonicalize, serve the
// analysis from the table, rehydrate for this file. The returned findings
// are the caller's own. The outcome is Hit when the analysis was skipped.
func (c *sourceCache) analyze(e *Engine, file string, src []byte) ([]Finding, Stats, memo.Outcome, error) {
	canon, subs, canonOK := c.canon.Canonicalize(src)
	key := memo.KeyOf(canon)
	v, outcome, err := c.table.Do(key, func() (cachedSource, error) {
		findings, stats, err := e.analyzeUncached(file, canon)
		if err != nil {
			return cachedSource{}, err
		}
		return cachedSource{findings: findings, stats: stats}, nil
	})
	if canonOK {
		ReleaseCanon(canon)
	}
	if err != nil {
		if !canonOK {
			// canon aliases src: the error is the real analysis error.
			return nil, Stats{Files: 1, ParseErrors: 1}, outcome, err
		}
		// The canonical source failed to analyze. That can only happen on
		// pathological inputs where a substitution lands outside the
		// guards' reach (e.g. inside an `.end method` operand); fall back
		// to analyzing the original directly, uncached.
		findings, stats, err := e.analyzeUncached(file, src)
		return findings, stats, outcome, err
	}
	return rehydrate(v, subs, file), v.stats, outcome, nil
}

// rehydrate re-attributes a cached analysis to the requesting file:
// findings are cloned, their File overwritten, placeholders expanded back
// to the app's concrete strings, and the result re-sorted (expansion can
// change message order).
func rehydrate(v cachedSource, subs []string, file string) []Finding {
	if len(v.findings) == 0 {
		return nil
	}
	out := make([]Finding, len(v.findings))
	copy(out, v.findings)
	for i := range out {
		out[i].File = file
		if len(subs) > 0 {
			out[i].Class = Expand(out[i].Class, subs)
			out[i].Method = Expand(out[i].Method, subs)
			out[i].Message = Expand(out[i].Message, subs)
		}
	}
	sortFindings(out)
	return out
}
