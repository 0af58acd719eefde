package measure

import (
	"math"
	"testing"

	"github.com/ghost-installer/gia/internal/corpus"
)

// fullCorpus is generated once: scale 1.0 reproduces the paper populations.
var fullCorpus = corpus.Generate(corpus.Config{Seed: 2017, Scale: 1.0})

// planted is what a perfect scanner extracts from each app's artifact:
// the generator's planted fields as features. Tallied, it is the ground
// truth the scanned tables are checked against.
func planted(apps []corpus.AppMeta) []ExtractedMeta {
	out := make([]ExtractedMeta, len(apps))
	for i, app := range apps {
		out[i] = ExtractedMeta{
			Package:           app.Package,
			HasInstallAPI:     app.HasInstallAPI,
			UsesSDCard:        app.Storage == corpus.StorageSDCard,
			SetsWorldReadable: app.Storage == corpus.StorageInternalWorldReadable,
			MarketLinks:       app.MarketLinks,
			UsesWriteExternal: app.UsesWriteExternal,
		}
	}
	return out
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f ± %.4f", name, got, want, tol)
	}
}

func TestClassifierVerdicts(t *testing.T) {
	tests := []struct {
		name string
		app  corpus.AppMeta
		want Category
	}{
		{name: "no install api", app: corpus.AppMeta{}, want: NotInstaller},
		{name: "sdcard installer", app: corpus.AppMeta{HasInstallAPI: true, Storage: corpus.StorageSDCard}, want: PotentiallyVulnerable},
		{name: "internal world-readable", app: corpus.AppMeta{HasInstallAPI: true, Storage: corpus.StorageInternalWorldReadable}, want: PotentiallySecure},
		{name: "unclear", app: corpus.AppMeta{HasInstallAPI: true, Storage: corpus.StorageUnclear}, want: Unknown},
	}
	for _, tt := range tests {
		if got := Classify(tt.app); got != tt.want {
			t.Errorf("%s: Classify = %v, want %v", tt.name, got, tt.want)
		}
	}
}

// The shape tests calibrate the generator at paper scale on its planted
// fields; TestScanMatchesPlanted carries them over to the scanned tables.
func TestTableIIShape(t *testing.T) {
	c := Tally(planted(fullCorpus.PlayApps))
	if c.Total != 12750 {
		t.Fatalf("play apps = %d", c.Total)
	}
	if c.Installers != 1493 {
		t.Errorf("installers = %d, want 1493", c.Installers)
	}
	if c.Vulnerable != 779 || c.Secure != 152 {
		t.Errorf("vulnerable/secure = %d/%d, want 779/152", c.Vulnerable, c.Secure)
	}
	within(t, "vulnerable frac (known)", c.VulnerableFracKnown(), 0.837, 0.005)
	within(t, "secure frac (known)", c.SecureFracKnown(), 0.163, 0.005)
	within(t, "vulnerable frac (all)", c.VulnerableFracAll(), 0.522, 0.005)
	within(t, "secure frac (all)", c.SecureFracAll(), 0.102, 0.005)
}

func TestTableIIIShape(t *testing.T) {
	unique := UniquePreinstalled(fullCorpus.Images)
	c := Tally(planted(unique))
	if c.Installers == 0 {
		t.Fatal("no pre-installed installers")
	}
	// The paper: 97.1% of known pre-installed installers use the SD card.
	within(t, "vulnerable frac (known)", c.VulnerableFracKnown(), 0.971, 0.03)
	within(t, "secure frac (known)", c.SecureFracKnown(), 0.029, 0.03)
	// Including unknowns: 42.9% / 1.26%.
	within(t, "vulnerable frac (all)", c.VulnerableFracAll(), 0.429, 0.05)
}

func TestWriteExternalPrevalence(t *testing.T) {
	n := Tally(planted(fullCorpus.PlayApps)).WriteExternal
	if n != 8721 {
		t.Errorf("play WRITE_EXTERNAL_STORAGE = %d, want 8721", n)
	}
}

func TestTableIVShape(t *testing.T) {
	b := RedirectCensus(planted(fullCorpus.PlayApps))
	within(t, "redirecting frac", float64(b.Redirecting)/float64(b.Total), 0.847, 0.01)
	within(t, "exactly 1", float64(b.Exactly1)/float64(b.Total), 0.057, 0.006)
	within(t, "<=2", float64(b.AtMost2)/float64(b.Total), 0.110, 0.008)
	within(t, "<=4", float64(b.AtMost4)/float64(b.Total), 0.164, 0.010)
	within(t, "<=8", float64(b.AtMost8)/float64(b.Total), 0.183, 0.010)
}

func TestTableVIShape(t *testing.T) {
	rows := InstallPackagesCensus(fullCorpus.Images)
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	want := map[string]float64{"samsung": 0.0845, "xiaomi": 0.1187, "huawei": 0.1032}
	for _, row := range rows {
		within(t, row.Vendor+" INSTALL_PACKAGES ratio", row.InstallPkgRatio, want[row.Vendor], 0.012)
		if row.AvgSystemApps < 50 {
			t.Errorf("%s avg apps = %.1f", row.Vendor, row.AvgSystemApps)
		}
	}
	// Samsung's row matches the Table VI denominator (≈206 apps, ≈17.7
	// with INSTALL_PACKAGES).
	for _, row := range rows {
		if row.Vendor == "samsung" {
			within(t, "samsung avg apps", row.AvgSystemApps, 206, 20)
			within(t, "samsung avg install apps", row.AvgWithInstall, 17.7, 3)
		}
	}
}

func TestPlatformKeyStudyShape(t *testing.T) {
	rows := PlatformKeyStudy(fullCorpus)
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	wantPerDev := map[string]float64{"samsung": 142, "huawei": 68, "xiaomi": 84}
	wantTotal := map[string]int{"samsung": 884, "huawei": 301, "xiaomi": 216}
	wantStore := map[string]int{"samsung": 61, "huawei": 125, "xiaomi": 30}
	for _, row := range rows {
		if row.DistinctKeys != 1 {
			t.Errorf("%s uses %d platform keys, want exactly 1", row.Vendor, row.DistinctKeys)
		}
		within(t, row.Vendor+" platform apps per device", row.AvgPerDevice, wantPerDev[row.Vendor], 8)
		if row.DistinctTotal != wantTotal[row.Vendor] {
			t.Errorf("%s distinct platform apps = %d, want %d", row.Vendor, row.DistinctTotal, wantTotal[row.Vendor])
		}
		if row.StoreAppsWithKey != wantStore[row.Vendor] {
			t.Errorf("%s store apps with key = %d, want %d", row.Vendor, row.StoreAppsWithKey, wantStore[row.Vendor])
		}
	}
}

func TestHareStudyShape(t *testing.T) {
	// The paper seeded from 10 Samsung images and searched the Samsung
	// image population: 178 seed apps, 27,763 cases, ≈23.5 per image.
	var samsung []corpus.FactoryImage
	for _, img := range fullCorpus.Images {
		if img.Vendor == "samsung" {
			samsung = append(samsung, img)
		}
	}
	res := HareStudy(samsung, 10)
	within(t, "seed apps", float64(res.SeedApps), 178, 25)
	within(t, "avg cases per image", res.AvgPerImage, 23.5, 3.5)
	if res.VulnerableCases < 20000 {
		t.Errorf("cases = %d, want tens of thousands", res.VulnerableCases)
	}
	if res.ImagesSearched != len(samsung) {
		t.Errorf("searched = %d", res.ImagesSearched)
	}
}

func TestFlowAnalysisStudyShape(t *testing.T) {
	res, _ := FlowAnalysisStudy(fullCorpus.PlayApps, planted(fullCorpus.PlayApps), 43)
	if res.Sampled != 43 {
		t.Fatalf("sampled = %d", res.Sampled)
	}
	if res.IncompleteCFG+res.HandlerIndirection+res.AnalyzerBugs+res.FlowAnalyzable != res.Sampled {
		t.Error("failure categories do not partition the sample")
	}
	// The paper's point: flow analysis fails on ~70% of installers while
	// the lightweight classifier decides most of them.
	within(t, "flow failure rate", res.FlowFailureRate(), 0.70, 0.20)
	if res.ClassifierDecided <= res.FlowAnalyzable {
		t.Errorf("classifier decided %d, flow analyzable %d — the lightweight tool must win",
			res.ClassifierDecided, res.FlowAnalyzable)
	}
	// Over the whole population the rates tighten to the marginals.
	whole, _ := FlowAnalysisStudy(fullCorpus.PlayApps, planted(fullCorpus.PlayApps), 1<<30)
	within(t, "population failure rate", whole.FlowFailureRate(), 0.70, 0.03)
}

func TestScaledCorpusKeepsProportions(t *testing.T) {
	small := corpus.Generate(corpus.Config{Seed: 5, Scale: 0.1})
	c := Tally(planted(small.PlayApps))
	if c.Total == 0 || c.Installers == 0 {
		t.Fatalf("scaled corpus empty: %+v", c)
	}
	within(t, "scaled vulnerable frac", c.VulnerableFracKnown(), 0.837, 0.02)
	b := RedirectCensus(planted(small.PlayApps))
	within(t, "scaled redirect frac", float64(b.Redirecting)/float64(b.Total), 0.847, 0.03)
}

func TestGenerateDeterministic(t *testing.T) {
	a := corpus.Generate(corpus.Config{Seed: 9, Scale: 0.05})
	b := corpus.Generate(corpus.Config{Seed: 9, Scale: 0.05})
	if len(a.PlayApps) != len(b.PlayApps) || len(a.Images) != len(b.Images) {
		t.Fatal("sizes differ across identical seeds")
	}
	for i := range a.PlayApps {
		if a.PlayApps[i].Package != b.PlayApps[i].Package || a.PlayApps[i].MarketLinks != b.PlayApps[i].MarketLinks {
			t.Fatalf("app %d differs", i)
		}
	}
}

func TestCategoryStrings(t *testing.T) {
	for _, c := range []Category{NotInstaller, PotentiallyVulnerable, PotentiallySecure, Unknown} {
		if c.String() == "" {
			t.Errorf("empty name for %d", c)
		}
	}
}
