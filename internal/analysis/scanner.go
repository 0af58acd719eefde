package analysis

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/memo"
	"github.com/ghost-installer/gia/internal/obs"
)

// Engine runs a rule set over smali sources and APK artifacts. An Engine
// is immutable after construction and safe for concurrent use.
type Engine struct {
	rules []Rule
	// cache, when non-nil, memoizes per-source analyses by canonicalized
	// content hash (see NewEngineWithOptions and cache.go).
	cache *sourceCache
	// met are the engine's scan counters; all-nil (the default) disables
	// them at zero cost. Observe re-homes them onto a registry.
	met engineMetrics
	// trace, when non-nil, gives ScanCorpus workers per-worker wall spans.
	trace *obs.Trace
}

// engineMetrics mirror the per-scan ScanStats aggregates as cumulative,
// engine-lifetime counters on the obs registry.
type engineMetrics struct {
	files        *obs.Counter
	instructions *obs.Counter
	findings     *obs.Counter
	parseErrors  *obs.Counter
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	cacheDeduped *obs.Counter
}

// NewEngine builds an engine; with no arguments it loads DefaultRules.
func NewEngine(rules ...Rule) *Engine {
	if len(rules) == 0 {
		rules = DefaultRules()
	}
	return &Engine{rules: rules}
}

// Rules returns the engine's rule set.
func (e *Engine) Rules() []Rule { return e.rules }

// Stats counts what one scan covered.
type Stats struct {
	Files        int
	Classes      int
	Methods      int
	Instructions int
	ParseErrors  int
}

func (s *Stats) add(o Stats) {
	s.Files += o.Files
	s.Classes += o.Classes
	s.Methods += o.Methods
	s.Instructions += o.Instructions
	s.ParseErrors += o.ParseErrors
}

// Report is the outcome of scanning one artifact: findings sorted by
// (file, line, rule), coverage stats and any per-file parse errors. The
// cache counters record how the artifact's files were served when the
// engine's analysis cache is enabled (all zero otherwise).
type Report struct {
	Findings []Finding
	Stats    Stats
	Errors   []error
	// Score is the artifact's 0–100 threat score (see score.go), derived
	// from Findings after the scan — so cached and uncached scans agree by
	// construction.
	Score int

	CacheHits    int
	CacheMisses  int
	CacheDeduped int
}

// AnalyzeSource parses one smali file and checks every rule against it.
// On a cache-enabled engine the result may be served from the
// content-addressed cache; either way it is byte-identical to a direct
// analysis.
func (e *Engine) AnalyzeSource(file, src string) ([]Finding, Stats, error) {
	findings, stats, _, err := e.analyzeSourceBytes(file, []byte(src))
	return findings, stats, err
}

// analyzeSourceBytes routes one file through the cache when enabled.
func (e *Engine) analyzeSourceBytes(file string, src []byte) ([]Finding, Stats, memo.Outcome, error) {
	if e.cache != nil {
		return e.cache.analyze(e, file, src)
	}
	findings, stats, err := e.analyzeUncached(file, src)
	return findings, stats, memo.Miss, err
}

// analyzeUncached is the full analysis pipeline: parse, build per-method
// facts lazily, run every rule.
func (e *Engine) analyzeUncached(file string, src []byte) ([]Finding, Stats, error) {
	cls, err := ParseBytes(file, src)
	if err != nil {
		return nil, Stats{Files: 1, ParseErrors: 1}, err
	}
	ci := NewClassInfo(cls)
	if e.cache != nil {
		// Serve taint summaries content-addressed: src here is whatever the
		// cache route analyzed (canonical bytes on the template path), so
		// the key is canonicalization-stable by construction.
		ci.sumTable = e.cache.sums
		ci.sumKey = memo.KeyOf(src)
	}
	var findings []Finding
	for _, rule := range e.rules {
		findings = append(findings, rule.Check(ci)...)
	}
	sortFindings(findings)
	return findings, Stats{
		Files:        1,
		Classes:      1,
		Methods:      len(cls.Methods),
		Instructions: cls.Instructions(),
	}, nil
}

// ScanAPK runs the rule set over every smali entry of an APK. Malformed
// entries are recorded in Report.Errors and skipped; the scan never
// panics on corrupt code.
func (e *Engine) ScanAPK(a *apk.APK) Report {
	var rep Report
	names := make([]string, 0, len(a.Files))
	for name := range a.Files {
		if strings.HasPrefix(name, "smali/") {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		findings, stats, outcome, err := e.analyzeSourceBytes(name, a.Files[name])
		rep.Stats.add(stats)
		if e.cache != nil {
			switch outcome {
			case memo.Hit:
				rep.CacheHits++
			case memo.Deduped:
				rep.CacheDeduped++
			default:
				rep.CacheMisses++
			}
		}
		if err != nil {
			rep.Errors = append(rep.Errors, err)
			continue
		}
		rep.Findings = append(rep.Findings, findings...)
	}
	sortFindings(rep.Findings)
	rep.Score = Score(rep.Findings)
	e.met.record(rep)
	return rep
}

// record mirrors one report onto the engine's cumulative counters. Called
// once per artifact — never on the per-instruction hot path — and free
// when the counters are nil.
func (m *engineMetrics) record(rep Report) {
	m.files.Add(int64(rep.Stats.Files))
	m.instructions.Add(int64(rep.Stats.Instructions))
	m.findings.Add(int64(len(rep.Findings)))
	m.parseErrors.Add(int64(rep.Stats.ParseErrors))
	m.cacheHits.Add(int64(rep.CacheHits))
	m.cacheMisses.Add(int64(rep.CacheMisses))
	m.cacheDeduped.Add(int64(rep.CacheDeduped))
}

// ScanStats aggregates a corpus scan with per-rule hit counts and
// throughput figures. The cache counters aggregate per-file outcomes of a
// cache-enabled engine (zero otherwise); their split between misses,
// hits and dedups depends on worker scheduling, but their sum is always
// the number of files scanned.
type ScanStats struct {
	APKs     int
	Workers  int
	Findings int
	PerRule  map[string]int
	Stats    Stats
	Elapsed  time.Duration

	// Threat-score aggregates over the scanned artifacts: total, maximum
	// and a ScoreBuckets-bucket histogram (20 points per bucket).
	ScoreSum  int
	ScoreMax  int
	ScoreHist [ScoreBuckets]int

	CacheHits    int
	CacheMisses  int
	CacheDeduped int
}

// MeanScore is the average per-APK threat score of the scan.
func (s ScanStats) MeanScore() float64 {
	if s.APKs == 0 {
		return 0
	}
	return float64(s.ScoreSum) / float64(s.APKs)
}

// InstructionsPerSecond is the scan throughput in IR operations.
func (s ScanStats) InstructionsPerSecond() float64 {
	return rate(s.Stats.Instructions, s.Elapsed)
}

// APKsPerSecond is the scan throughput in artifacts.
func (s ScanStats) APKsPerSecond() float64 { return rate(s.APKs, s.Elapsed) }

func rate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// ScanCorpus fans a corpus of n artifacts out over a bounded worker pool.
// fetch(i) supplies the i-th artifact and is called concurrently from the
// workers, so expensive artifact materialization (corpus.BuildAPKFor)
// parallelizes with the scan itself. Results are returned index-aligned
// with the input; a nil artifact yields an empty Report.
func (e *Engine) ScanCorpus(n, workers int, fetch func(int) *apk.APK) ([]Report, ScanStats) {
	if workers < 1 {
		workers = 1
	}
	if workers > n && n > 0 {
		workers = n
	}
	start := time.Now()
	reports := make([]Report, n)
	partials := make([]ScanStats, workers)
	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, part *ScanStats) {
			defer wg.Done()
			part.PerRule = make(map[string]int)
			var track *obs.Track
			if e.trace != nil {
				track = e.trace.WallTrack("scan/worker-" + strconv.Itoa(w))
			}
			for i := range indices {
				a := fetch(i)
				if a == nil {
					continue
				}
				var sp obs.Span
				if track != nil {
					sp = track.Begin("apk", strconv.Itoa(i))
				}
				rep := e.ScanAPK(a)
				sp.End()
				reports[i] = rep
				part.APKs++
				part.Findings += len(rep.Findings)
				part.Stats.add(rep.Stats)
				part.ScoreSum += rep.Score
				if rep.Score > part.ScoreMax {
					part.ScoreMax = rep.Score
				}
				part.ScoreHist[ScoreBucket(rep.Score)]++
				part.CacheHits += rep.CacheHits
				part.CacheMisses += rep.CacheMisses
				part.CacheDeduped += rep.CacheDeduped
				for _, f := range rep.Findings {
					part.PerRule[f.RuleID]++
				}
			}
		}(w, &partials[w])
	}
	for i := 0; i < n; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()

	agg := ScanStats{Workers: workers, PerRule: make(map[string]int)}
	for _, p := range partials {
		agg.APKs += p.APKs
		agg.Findings += p.Findings
		agg.Stats.add(p.Stats)
		agg.ScoreSum += p.ScoreSum
		if p.ScoreMax > agg.ScoreMax {
			agg.ScoreMax = p.ScoreMax
		}
		for b, c := range p.ScoreHist {
			agg.ScoreHist[b] += c
		}
		agg.CacheHits += p.CacheHits
		agg.CacheMisses += p.CacheMisses
		agg.CacheDeduped += p.CacheDeduped
		for id, c := range p.PerRule {
			agg.PerRule[id] += c
		}
	}
	agg.Elapsed = time.Since(start)
	return reports, agg
}

// sortFindings orders findings by (file, line, rule, message) so scan
// output is deterministic regardless of rule or map iteration order.
// slices.SortFunc rather than sort.Slice: the latter builds a reflective
// swapper per call, which the cached scan path is hot enough to notice.
func sortFindings(fs []Finding) {
	slices.SortFunc(fs, func(a, b Finding) int {
		if c := strings.Compare(a.File, b.File); c != 0 {
			return c
		}
		if a.Line != b.Line {
			if a.Line < b.Line {
				return -1
			}
			return 1
		}
		if c := strings.Compare(a.RuleID, b.RuleID); c != 0 {
			return c
		}
		return strings.Compare(a.Message, b.Message)
	})
}
