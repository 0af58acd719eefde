package measure

import (
	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/corpus"
	"github.com/ghost-installer/gia/internal/obs"
)

// ExtractedMeta is what the Section IV-A scanner recovers from an APK
// artifact (the Apktool/Soot pipeline of the paper, reimplemented over our
// synthetic smali).
type ExtractedMeta struct {
	Package           string
	HasInstallAPI     bool
	UsesSDCard        bool
	SetsWorldReadable bool
	MarketLinks       int
	UsesWriteExternal bool
	// ReflectionObfuscated marks the analysis-blocker pattern: the app
	// reaches file APIs through reflection, so its storage behaviour is
	// opaque to static analysis (the paper's "unknown" bucket).
	ReflectionObfuscated bool
	// SelfSigCheck / IntegrityCheck mark the anti-repackaging defenses:
	// the app verifies its own signing certificate, or digests its code
	// archive, before installing anything.
	SelfSigCheck   bool
	IntegrityCheck bool
	// Score is the 0-100 aggregate threat score derived from the findings.
	Score int
}

// engine is the shared scan engine: the default GIA rule set behind one
// content-addressed analysis cache. Template-identical smali collapses to
// a few dozen distinct canonical analyses, so every population scanned in
// a process pays for each template once. Its findings are byte-identical
// to an uncached engine's (TestCachedMatchesUncached pins this). It is
// safe for concurrent use.
var engine = analysis.NewEngineWithOptions(analysis.EngineOptions{CacheCapacity: 4096})

// ObserveEngine re-homes the shared engine's telemetry onto reg: the
// "analysis.scan.*" counters and the "analysis.cache.*" memo layer.
// Values accumulated before the call carry over; a nil registry is a
// no-op. Call it before scanning concurrently.
func ObserveEngine(reg *obs.Registry) { engine.Observe(reg) }

// Scan is the Section IV-A pipeline over a population: it builds each
// app's APK artifact, scans it with the analysis engine's parsed IR,
// per-method control-flow graphs and reaching definitions, and folds the
// findings and the manifest into the classifier's features. It returns
// the features index-aligned with apps plus the scan's aggregate
// statistics (per-rule hits, threat scores, coverage).
// A nil e scans on the shared cached engine; tests pass
// analysis.NewEngine() as the uncached reference. workers <= 0 selects
// NumCPU.
func Scan(e *analysis.Engine, apps []corpus.AppMeta, workers int) ([]ExtractedMeta, analysis.ScanStats) {
	if e == nil {
		e = engine
	}
	writeExt := make([]bool, len(apps))
	reports, stats := e.ScanCorpus(len(apps), workers, func(i int) *apk.APK {
		a := corpus.BuildAPKFor(apps[i])
		// The permission that suffices for a GIA hijack on shared storage.
		writeExt[i] = a.Manifest.Uses("android.permission.WRITE_EXTERNAL_STORAGE")
		return a
	})
	metas := make([]ExtractedMeta, len(apps))
	for i, rep := range reports {
		metas[i] = ExtractedMeta{Package: apps[i].Package, UsesWriteExternal: writeExt[i]}
		applyFindings(&metas[i], rep.Findings)
	}
	return metas, stats
}

// applyFindings folds the engine's rule hits into the classifier features.
// Both staging rules map onto UsesSDCard: the intraprocedural rule catches
// the literal-path pattern, the taint rule the cross-method pattern where
// the external path reaches the sink through a helper's return value —
// without the latter, interprocedurally-staged apps fall into the Unknown
// bucket and the Table II/III classifications drift from ground truth.
func applyFindings(out *ExtractedMeta, findings []analysis.Finding) {
	for _, f := range findings {
		switch f.RuleID {
		case analysis.RuleIDInstallAPI:
			out.HasInstallAPI = true
		case analysis.RuleIDSDCardStaging, analysis.RuleIDTaintStaging:
			out.UsesSDCard = true
		case analysis.RuleIDWorldReadable:
			out.SetsWorldReadable = true
		case analysis.RuleIDMarketLink:
			out.MarketLinks++
		case analysis.RuleIDReflection:
			out.ReflectionObfuscated = true
		case analysis.RuleIDSelfSigCheck:
			out.SelfSigCheck = true
		case analysis.RuleIDIntegrityCheck:
			out.IntegrityCheck = true
		}
	}
	out.Score = analysis.Score(findings)
}

// ClassifyExtracted applies the classifier rules to extracted features:
// first the install-API marker, then the world-readable file APIs and the
// /sdcard staging.
func ClassifyExtracted(m ExtractedMeta) Category {
	switch {
	case !m.HasInstallAPI:
		return NotInstaller
	case m.UsesSDCard && !m.SetsWorldReadable:
		return PotentiallyVulnerable
	case !m.UsesSDCard && m.SetsWorldReadable:
		return PotentiallySecure
	default:
		return Unknown
	}
}
