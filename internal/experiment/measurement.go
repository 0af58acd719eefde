package experiment

import (
	"fmt"

	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/corpus"
	"github.com/ghost-installer/gia/internal/measure"
)

// NewCorpus builds the measurement corpus at the given scale (1.0 = the
// paper's population sizes).
func NewCorpus(seed int64, scale float64) *corpus.Corpus {
	return corpus.Generate(corpus.Config{Seed: seed, Scale: scale})
}

// TableI reproduces the attack/AIT-step summary.
func TableI() Table {
	return Table{
		ID:     "Table I",
		Title:  "Summary of AIT problems",
		Header: []string{"Section", "Attack Name", "AIT steps [Step No]"},
		Rows: [][]string{
			{"3.2", "Hijacking Installation", "Installation Trigger[3]"},
			{"3.2", "Hijacking Installation", "APK Install[4]"},
			{"3.3", "Exploiting DM", "APK Download[2]"},
			{"3.4", "Attacking Installer Interfaces", "AIT Invocation[1]"},
		},
	}
}

// Measurement is one corpus with each Section IV population scanned once:
// the Play apps and the unique pre-installed apps, each as the features
// extracted from its built APK artifacts, plus the Play scan's statistics.
// Tables II, III and IV, the flow study's artifact row and Threat Scores
// all read it, so no table builds or scans an artifact of its own.
type Measurement struct {
	Corpus *corpus.Corpus
	// Play is index-aligned with Corpus.PlayApps.
	Play      []measure.ExtractedMeta
	PlayStats analysis.ScanStats
	// Preinstalled is index-aligned with
	// measure.UniquePreinstalled(Corpus.Images).
	Preinstalled []measure.ExtractedMeta
}

// Measure scans c's two populations, once each, on e (nil selects
// measure's shared cached engine) with a pool of workers (<= 0 selects
// NumCPU). The tables rendered from it are identical for any engine and
// worker count; TestCacheTableParity pins this.
func Measure(e *analysis.Engine, c *corpus.Corpus, workers int) *Measurement {
	m := &Measurement{Corpus: c}
	m.Play, m.PlayStats = measure.Scan(e, c.PlayApps, workers)
	m.Preinstalled, _ = measure.Scan(e, measure.UniquePreinstalled(c.Images), workers)
	return m
}

// TableII classifies the top Google Play apps from their scanned
// artifacts. TestScanMatchesPlanted pins that the measured values equal
// the ground-truth tally of the generator's planted metadata.
func TableII(m *Measurement) Table {
	cls := measure.Tally(m.Play)
	return classificationTable("Table II",
		"Potentially vulnerable Google Play apps due to SD-Card usage", cls,
		fmt.Sprintf("%d/%d apps request WRITE_EXTERNAL_STORAGE (sufficient for hijack)", cls.WriteExternal, cls.Total))
}

// TableIII classifies the unique pre-installed apps from their scanned
// artifacts; see TableII.
func TableIII(m *Measurement) Table {
	return classificationTable("Table III",
		"Potentially vulnerable pre-installed apps due to SD-Card usage", measure.Tally(m.Preinstalled),
		fmt.Sprintf("deduplicated by package name across %d images", len(m.Corpus.Images)))
}

func classificationTable(id, title string, cls measure.Classification, note string) Table {
	return Table{
		ID:     id,
		Title:  title,
		Header: []string{"Type", "SD-Card (potentially vulnerable)", "Internal Storage (potentially secure)"},
		Rows: [][]string{
			{"Excluding Unknown Apps",
				ratio(cls.Vulnerable, cls.Known()),
				ratio(cls.Secure, cls.Known())},
			{"Including Unknown Apps",
				ratio(cls.Vulnerable, cls.Installers),
				ratio(cls.Secure, cls.Installers)},
		},
		Notes: []string{
			fmt.Sprintf("%d of %d apps contain installation API calls", cls.Installers, cls.Total),
			note,
		},
	}
}

// TableIV counts the hard-coded market URLs/schemes the scan finds among
// Play apps.
func TableIV(m *Measurement) Table {
	b := measure.RedirectCensus(m.Play)
	return Table{
		ID:     "Table IV",
		Title:  "Number of fixed url or redirection scheme",
		Header: []string{"# of hardcoded url or scheme", "1", "<=2", "<=4", "<=8"},
		Rows: [][]string{
			{"# apps",
				ratio(b.Exactly1, b.Total),
				ratio(b.AtMost2, b.Total),
				ratio(b.AtMost4, b.Total),
				ratio(b.AtMost8, b.Total)},
		},
		Notes: []string{
			fmt.Sprintf("%s of the top apps redirect users with a fixed URL or scheme",
				pct(float64(b.Redirecting)/float64(b.Total))),
		},
	}
}

// TableVI reports the per-vendor INSTALL_PACKAGES census.
func TableVI(c *corpus.Corpus) Table {
	rows := measure.InstallPackagesCensus(c.Images)
	t := Table{
		ID:     "Table VI",
		Title:  "Average number of system apps and INSTALL_PACKAGES ratio per vendor",
		Header: []string{"Vendor", "Images", "Avg system apps", "Avg w/ INSTALL_PACKAGES", "Ratio"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Vendor,
			fmt.Sprintf("%d", r.Images),
			fmt.Sprintf("%.1f", r.AvgSystemApps),
			fmt.Sprintf("%.1f", r.AvgWithInstall),
			pct(r.InstallPkgRatio),
		})
	}
	return t
}

// KeyStudy reports the platform-key usage findings.
func KeyStudy(c *corpus.Corpus) Table {
	rows := measure.PlatformKeyStudy(c)
	t := Table{
		ID:     "Key Study",
		Title:  "Platform key usage (Section IV-B)",
		Header: []string{"Vendor", "Distinct platform keys", "Platform-signed apps/device", "Distinct platform-signed apps", "Store apps w/ platform key"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Vendor,
			fmt.Sprintf("%d", r.DistinctKeys),
			fmt.Sprintf("%.0f", r.AvgPerDevice),
			fmt.Sprintf("%d", r.DistinctTotal),
			fmt.Sprintf("%d", r.StoreAppsWithKey),
		})
	}
	t.Notes = append(t.Notes, "each vendor signs every device model with a single platform key")
	return t
}

// FlowStudy reports the Section IV-A tool comparison: Flowdroid-style
// taint analysis fails on most installers, while the lightweight
// world-readable classifier decides the majority. It renders two rows:
// the ground-truth tally (what the paper could reconstruct from
// Flowdroid's failure logs) and the artifact pipeline, whose classifier
// verdicts are the Play scan's.
func FlowStudy(m *Measurement, sample int) Table {
	flowRow := func(label string, res measure.FlowResult) []string {
		return []string{
			label,
			fmt.Sprintf("%d", res.Sampled),
			ratio(res.IncompleteCFG, res.Sampled),
			ratio(res.HandlerIndirection, res.Sampled),
			ratio(res.AnalyzerBugs, res.Sampled),
			ratio(res.FlowAnalyzable, res.Sampled),
			ratio(res.ClassifierDecided, res.Sampled),
		}
	}
	truth, artifact := measure.FlowAnalysisStudy(m.Corpus.PlayApps, m.Play, sample)
	return Table{
		ID:     "Flow Study",
		Title:  "Flow analysis vs the lightweight classifier (Section IV-A)",
		Header: []string{"Pipeline", "Sampled", "Incomplete CFG", "handleMessage loss", "Analyzer bugs", "Flow-analyzable", "Classifier decided"},
		Rows: [][]string{
			flowRow("ground truth", truth),
			flowRow("artifact scan", artifact),
		},
		Notes: []string{"the paper tested 43 apps; 14% stopped on CFGs, 14% on handleMessage, 42% on Flowdroid bugs"},
	}
}

// ThreatScoreTable renders the 0-100 threat-score distribution the
// interprocedural engine assigns to the Play population: a histogram over
// the five score buckets, the mean/max score, and how many apps carry an
// anti-repackaging defense (which deducts from the score).
func ThreatScoreTable(m *Measurement) Table {
	defended := 0
	for _, meta := range m.Play {
		if meta.SelfSigCheck || meta.IntegrityCheck {
			defended++
		}
	}
	stats := m.PlayStats
	t := Table{
		ID:     "Threat Scores",
		Title:  "Threat-score distribution over the Play population (0-100)",
		Header: []string{"Score bucket", "Apps", "Share"},
	}
	for b := 0; b < analysis.ScoreBuckets; b++ {
		t.Rows = append(t.Rows, []string{
			analysis.ScoreBucketLabel(b),
			fmt.Sprintf("%d", stats.ScoreHist[b]),
			ratio(stats.ScoreHist[b], stats.APKs),
		})
	}
	t.Notes = []string{
		fmt.Sprintf("mean score %.1f, max %d over %d apps", stats.MeanScore(), stats.ScoreMax, stats.APKs),
		fmt.Sprintf("%d/%d apps carry a self-signature or integrity check (score deduction)", defended, len(m.Play)),
	}
	return t
}

// HareStudy reports the hanging-permission escalation surface.
func HareStudy(c *corpus.Corpus) Table {
	var samsung []corpus.FactoryImage
	for _, img := range c.Images {
		if img.Vendor == "samsung" {
			samsung = append(samsung, img)
		}
	}
	res := measure.HareStudy(samsung, 10)
	return Table{
		ID:     "Hare Study",
		Title:  "Privilege escalation via hanging attribute references (Section IV-B)",
		Header: []string{"Seed apps (10 images)", "Images searched", "Vulnerable cases", "Avg cases/image"},
		Rows: [][]string{{
			fmt.Sprintf("%d", res.SeedApps),
			fmt.Sprintf("%d", res.ImagesSearched),
			fmt.Sprintf("%d", res.VulnerableCases),
			fmt.Sprintf("%.1f", res.AvgPerImage),
		}},
	}
}
