package analysis

import (
	"slices"
	"strings"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/memo"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/par"
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
}

// engineMetrics mirror the per-scan ScanStats aggregates as cumulative,
// engine-lifetime counters on the obs registry.
type engineMetrics struct {
	files        *obs.Counter
	instructions *obs.Counter
	findings     *obs.Counter
	parseErrors  *obs.Counter
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
// (file, line, rule), coverage stats and any per-file parse errors.
type Report struct {
	Findings []Finding
	Stats    Stats
	Errors   []error
	// Score is the artifact's 0–100 threat score (see score.go), derived
	// from Findings after the scan — so cached and uncached scans agree by
	// construction.
	Score int
	// CacheMisses counts the artifact's files that a cached engine had to
	// analyze itself (always zero on an uncached engine). The engine-wide
	// split of hits, misses and dedups is Engine.CacheStats.
	CacheMisses int
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
		if e.cache != nil && outcome == memo.Miss {
			rep.CacheMisses++
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
}

// ScanStats aggregates a corpus scan: coverage, per-rule hit counts and
// threat-score aggregates. Every field is a sum or maximum over the
// scanned artifacts, so it is the same at any worker count.
type ScanStats struct {
	APKs     int
	Findings int
	PerRule  map[string]int
	Stats    Stats

	// Threat-score aggregates over the scanned artifacts: total, maximum
	// and a ScoreBuckets-bucket histogram (20 points per bucket).
	ScoreSum  int
	ScoreMax  int
	ScoreHist [ScoreBuckets]int
}

// MeanScore is the average per-APK threat score of the scan.
func (s ScanStats) MeanScore() float64 {
	if s.APKs == 0 {
		return 0
	}
	return float64(s.ScoreSum) / float64(s.APKs)
}

// ScanCorpus scans a corpus of n artifacts on the shared worker pool
// (par.Map; workers <= 0 selects NumCPU). fetch(i) supplies the i-th
// artifact and is called concurrently from the workers, so expensive
// artifact materialization (corpus.BuildAPKFor) parallelizes with the
// scan itself. Results are returned index-aligned with the input; a nil
// artifact yields an empty Report and is not counted. A panic in fetch or
// the scan is re-raised on the calling goroutine.
func (e *Engine) ScanCorpus(n, workers int, fetch func(int) *apk.APK) ([]Report, ScanStats) {
	scanned := make([]bool, n)
	reports, err := par.Map(workers, n, func(i int) (Report, error) {
		a := fetch(i)
		if a == nil {
			return Report{}, nil
		}
		scanned[i] = true
		return e.ScanAPK(a), nil
	})
	if err != nil {
		panic(err)
	}
	agg := ScanStats{PerRule: make(map[string]int)}
	for i, rep := range reports {
		if !scanned[i] {
			continue
		}
		agg.APKs++
		agg.Findings += len(rep.Findings)
		agg.Stats.add(rep.Stats)
		agg.ScoreSum += rep.Score
		agg.ScoreMax = max(agg.ScoreMax, rep.Score)
		agg.ScoreHist[ScoreBucket(rep.Score)]++
		for _, f := range rep.Findings {
			agg.PerRule[f.RuleID]++
		}
	}
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
