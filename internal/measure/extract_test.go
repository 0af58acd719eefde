package measure

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/corpus"
)

func metaFor(storage corpus.StorageUse, installAPI bool, links int) corpus.AppMeta {
	return corpus.AppMeta{
		Package: "com.scan.me", VersionCode: 1, Signer: "dev",
		HasInstallAPI: installAPI, Storage: storage, MarketLinks: links,
		UsesWriteExternal: storage == corpus.StorageSDCard,
	}
}

// scanOne runs the artifact pipeline over a one-app population.
func scanOne(meta corpus.AppMeta) ExtractedMeta {
	metas, _ := Scan(nil, []corpus.AppMeta{meta}, 1)
	return metas[0]
}

func TestExtractMetaSDCardInstaller(t *testing.T) {
	meta := metaFor(corpus.StorageSDCard, true, 0)
	got := scanOne(meta)
	if !got.HasInstallAPI || !got.UsesSDCard || got.SetsWorldReadable {
		t.Errorf("extracted = %+v", got)
	}
	if !got.UsesWriteExternal {
		t.Error("WRITE_EXTERNAL_STORAGE not extracted from the manifest")
	}
	if ClassifyExtracted(got) != PotentiallyVulnerable {
		t.Errorf("classified as %v", ClassifyExtracted(got))
	}
}

func TestExtractMetaInternalInstallerNeedsDefUse(t *testing.T) {
	// The world-readable mode reaches openFileOutput through a register:
	// only the def-use resolution finds it.
	meta := metaFor(corpus.StorageInternalWorldReadable, true, 0)
	got := scanOne(meta)
	if !got.HasInstallAPI || got.UsesSDCard || !got.SetsWorldReadable {
		t.Errorf("extracted = %+v", got)
	}
	if ClassifyExtracted(got) != PotentiallySecure {
		t.Errorf("classified as %v", ClassifyExtracted(got))
	}
}

func TestExtractMetaObfuscatedInstallerIsUnknown(t *testing.T) {
	meta := metaFor(corpus.StorageUnclear, true, 0)
	got := scanOne(meta)
	if !got.HasInstallAPI {
		t.Error("install API marker missed")
	}
	if got.UsesSDCard || got.SetsWorldReadable {
		t.Errorf("reflection-obfuscated app leaked markers: %+v", got)
	}
	if ClassifyExtracted(got) != Unknown {
		t.Errorf("classified as %v", ClassifyExtracted(got))
	}
}

func TestExtractMetaNonInstaller(t *testing.T) {
	meta := metaFor(corpus.StorageNone, false, 3)
	got := scanOne(meta)
	if got.HasInstallAPI {
		t.Error("phantom install API")
	}
	if got.MarketLinks != 3 {
		t.Errorf("market links = %d, want 3", got.MarketLinks)
	}
	if ClassifyExtracted(got) != NotInstaller {
		t.Errorf("classified as %v", ClassifyExtracted(got))
	}
}

// Property: for any generated ground truth, the artifact round-trip
// (build → extract → classify) agrees with classifying the ground truth
// directly, and the market-link count survives exactly.
func TestPropertyArtifactRoundTrip(t *testing.T) {
	storages := []corpus.StorageUse{
		corpus.StorageNone, corpus.StorageSDCard,
		corpus.StorageInternalWorldReadable, corpus.StorageUnclear,
	}
	f := func(storageIdx, links uint8) bool {
		storage := storages[int(storageIdx)%len(storages)]
		meta := metaFor(storage, storage != corpus.StorageNone, int(links)%20)
		got := scanOne(meta)
		if ClassifyExtracted(got) != Classify(meta) {
			return false
		}
		return got.MarketLinks == meta.MarketLinks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRegisterOverwriteRegression pins the case the old flat line-scanner
// misclassified: the SD-card installer's smali assigns MODE_WORLD_READABLE
// to the mode register and then (in execution order, behind a backward
// goto) overwrites it with MODE_PRIVATE before the staging call. A
// last-write-wins textual scan resolves the register to
// MODE_WORLD_READABLE and flags the app; the CFG-based engine must not.
func TestRegisterOverwriteRegression(t *testing.T) {
	meta := metaFor(corpus.StorageSDCard, true, 0)
	artifact := corpus.BuildAPKFor(meta)
	code := string(artifact.Files["smali/Installer.smali"])
	if !strings.Contains(code, "MODE_WORLD_READABLE") {
		t.Fatal("emitter no longer plants the world-readable decoy; the regression case is gone")
	}
	if !strings.Contains(code, "goto :") {
		t.Fatal("emitter no longer emits branches")
	}
	// The flat scan's verdict: last textual write to v3 before the call.
	lastWrite := ""
	for _, line := range strings.Split(code, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "const/4 v3, ") {
			lastWrite = strings.TrimPrefix(line, "const/4 v3, ")
		}
		if strings.Contains(line, "openFileOutput") {
			break
		}
	}
	if lastWrite != "MODE_WORLD_READABLE" {
		t.Fatalf("fixture lost its teeth: textual last write = %q, want MODE_WORLD_READABLE", lastWrite)
	}
	got := scanOne(meta)
	if got.SetsWorldReadable {
		t.Error("dead world-readable store flagged: the def-use chain regressed to last-write-wins")
	}
	if ClassifyExtracted(got) != PotentiallyVulnerable {
		t.Errorf("classified as %v, want PotentiallyVulnerable", ClassifyExtracted(got))
	}
}

func TestExtractMetaReflectionBlocker(t *testing.T) {
	if got := scanOne(metaFor(corpus.StorageUnclear, true, 0)); !got.ReflectionObfuscated {
		t.Error("reflection obfuscation not detected on the unclear installer")
	}
	if got := scanOne(metaFor(corpus.StorageSDCard, true, 0)); got.ReflectionObfuscated {
		t.Error("phantom reflection blocker on a plain SD-card installer")
	}
}

// TestScanArtifactsStats checks the parallel scanner's aggregate: per-rule
// hit counts consistent with ground truth and non-trivial coverage stats.
func TestScanArtifactsStats(t *testing.T) {
	apps := []corpus.AppMeta{
		metaFor(corpus.StorageSDCard, true, 0),
		metaFor(corpus.StorageInternalWorldReadable, true, 0),
		metaFor(corpus.StorageUnclear, true, 0),
		metaFor(corpus.StorageNone, false, 4),
	}
	metas, stats := Scan(nil, apps, 2)
	if len(metas) != len(apps) {
		t.Fatalf("metas = %d", len(metas))
	}
	if stats.APKs != len(apps) {
		t.Errorf("stats = %+v", stats)
	}
	if stats.PerRule[analysis.RuleIDInstallAPI] != 3 ||
		stats.PerRule[analysis.RuleIDSDCardStaging] != 1 ||
		stats.PerRule[analysis.RuleIDWorldReadable] != 1 ||
		stats.PerRule[analysis.RuleIDMarketLink] != 4 ||
		stats.PerRule[analysis.RuleIDReflection] == 0 {
		t.Errorf("per-rule = %v", stats.PerRule)
	}
	if stats.Stats.Instructions == 0 || stats.Stats.Classes == 0 || stats.Stats.ParseErrors != 0 {
		t.Errorf("coverage stats = %+v", stats.Stats)
	}
}

// TestFlowAnalysisStudyArtifactsAgrees replays the flow study through the
// artifact pipeline and checks it agrees with the metadata-driven row.
func TestFlowAnalysisStudyArtifactsAgrees(t *testing.T) {
	small := corpus.Generate(corpus.Config{Seed: 11, Scale: 0.02})
	scanned, _ := Scan(nil, small.PlayApps, 0)
	truth, artifact := FlowAnalysisStudy(small.PlayApps, scanned, 43)
	if truth.Sampled == 0 || artifact != truth {
		t.Errorf("artifacts study = %+v, metadata study = %+v", artifact, truth)
	}
}

// TestPipelineReproducesTableIIOnSample runs the full artifact pipeline
// over a corpus slice and checks it agrees with ground-truth
// classification app by app.
func TestPipelineReproducesTableIIOnSample(t *testing.T) {
	small := corpus.Generate(corpus.Config{Seed: 77, Scale: 0.05})
	sample := small.PlayApps
	if len(sample) > 400 {
		sample = sample[:400]
	}
	scanned, _ := Scan(nil, sample, 0)
	for i, app := range sample {
		if got, want := ClassifyExtracted(scanned[i]), Classify(app); got != want {
			t.Errorf("%s: pipeline = %v, ground truth = %v", app.Package, got, want)
		}
	}
	if got, want := Tally(scanned), Tally(planted(sample)); got != want {
		t.Errorf("pipeline = %+v, ground truth = %+v", got, want)
	}
}

// TestScanMatchesPlanted is the oracle for every table the scan feeds:
// on two seeds, the artifact-derived Table II (with its WRITE_EXTERNAL
// count), Table III, the Table IV buckets and the flow study's artifact
// row equal the ground-truth tallies of the generator's planted fields.
func TestScanMatchesPlanted(t *testing.T) {
	for _, seed := range []int64{2017, 7} {
		c := corpus.Generate(corpus.Config{Seed: seed, Scale: 0.02})
		play, _ := Scan(nil, c.PlayApps, 0)
		if got, want := Tally(play), Tally(planted(c.PlayApps)); got != want {
			t.Errorf("seed %d Table II: scanned %+v, planted %+v", seed, got, want)
		}
		unique := UniquePreinstalled(c.Images)
		pre, _ := Scan(nil, unique, 0)
		if got, want := Tally(pre), Tally(planted(unique)); got != want {
			t.Errorf("seed %d Table III: scanned %+v, planted %+v", seed, got, want)
		}
		if got, want := RedirectCensus(play), RedirectCensus(planted(c.PlayApps)); got != want {
			t.Errorf("seed %d Table IV: scanned %+v, planted %+v", seed, got, want)
		}
		truth, artifact := FlowAnalysisStudy(c.PlayApps, play, 43)
		if truth.Sampled == 0 || artifact != truth {
			t.Errorf("seed %d flow study: artifact row %+v, ground-truth row %+v", seed, artifact, truth)
		}
	}
}
