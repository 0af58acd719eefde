package analysis

import (
	"reflect"
	"runtime"
	"testing"

	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/sig"
)

func testAPK(files map[string]string) *apk.APK {
	raw := make(map[string][]byte, len(files))
	for name, src := range files {
		raw[name] = []byte(src)
	}
	m := apk.Manifest{Package: "com.t", VersionCode: 1, Label: "t"}
	return apk.Build(m, raw, sig.NewKey("dev"))
}

func TestScanAPKFindingsAndStats(t *testing.T) {
	a := testAPK(map[string]string{
		"smali/Installer.smali": wrap(`    const-string v0, "application/vnd.android.package-archive"
    const-string v2, "/sdcard/stage.apk"
`),
		"smali/Redirects.smali": wrap(`    const-string v0, "market://details?id=com.x"
`),
		"res/strings.txt": "not smali, must be ignored",
	})
	eng := NewEngine()
	rep := eng.ScanAPK(a)
	if len(rep.Errors) != 0 {
		t.Fatalf("errors = %v", rep.Errors)
	}
	if rep.Stats.Files != 2 || rep.Stats.Classes != 2 || rep.Stats.Methods != 2 {
		t.Errorf("stats = %+v", rep.Stats)
	}
	byRule := make(map[string]int)
	for _, f := range rep.Findings {
		byRule[f.RuleID]++
	}
	want := map[string]int{RuleIDInstallAPI: 1, RuleIDSDCardStaging: 1, RuleIDMarketLink: 1}
	if !reflect.DeepEqual(byRule, want) {
		t.Errorf("per-rule = %v, want %v", byRule, want)
	}
	// Deterministic ordering: findings sorted by file then line.
	for i := 1; i < len(rep.Findings); i++ {
		a, b := rep.Findings[i-1], rep.Findings[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("findings out of order: %v before %v", a, b)
		}
	}
}

func TestScanAPKMalformedEntryIsIsolated(t *testing.T) {
	a := testAPK(map[string]string{
		"smali/Bad.smali":  ".class Lb;\n.method m()V\n    const-string v0, \"oops\n.end method\n",
		"smali/Good.smali": wrap("    const-string v2, \"/sdcard/x\"\n"),
	})
	rep := NewEngine().ScanAPK(a)
	if len(rep.Errors) != 1 {
		t.Fatalf("errors = %v, want exactly 1", rep.Errors)
	}
	if rep.Stats.ParseErrors != 1 {
		t.Errorf("parse errors = %d", rep.Stats.ParseErrors)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].RuleID != RuleIDSDCardStaging {
		t.Errorf("good entry not scanned: %v", rep.Findings)
	}
}

// TestScanCorpusParallelMatchesSerial: the scanner must produce identical
// per-index reports and aggregate per-rule counts at any worker count.
func TestScanCorpusParallelMatchesSerial(t *testing.T) {
	apks := make([]*apk.APK, 60)
	for i := range apks {
		switch i % 3 {
		case 0:
			apks[i] = testAPK(map[string]string{"smali/A.smali": wrap(
				"    const-string v2, \"/sdcard/stage.apk\"\n")})
		case 1:
			apks[i] = testAPK(map[string]string{"smali/B.smali": wrap(
				"    const/4 v3, MODE_WORLD_READABLE\n    invoke-virtual {p0, v2, v3}, Landroid/content/Context;->openFileOutput(Ljava/lang/String;I)Ljava/io/FileOutputStream;\n")})
		default:
			apks[i] = testAPK(map[string]string{"smali/C.smali": wrap(
				"    const-string v0, \"hello\"\n")})
		}
	}
	eng := NewEngine()
	fetch := func(i int) *apk.APK { return apks[i] }
	serialReports, serialStats := eng.ScanCorpus(len(apks), 1, fetch)
	parallelReports, parallelStats := eng.ScanCorpus(len(apks), runtime.NumCPU(), fetch)
	if serialStats.Workers != 1 || parallelStats.Workers < 1 {
		t.Errorf("workers = %d / %d", serialStats.Workers, parallelStats.Workers)
	}
	if !reflect.DeepEqual(serialReports, parallelReports) {
		t.Fatal("parallel reports differ from serial")
	}
	if !reflect.DeepEqual(serialStats.PerRule, parallelStats.PerRule) {
		t.Errorf("per-rule counts differ: %v vs %v", serialStats.PerRule, parallelStats.PerRule)
	}
	if serialStats.APKs != len(apks) || parallelStats.APKs != len(apks) {
		t.Errorf("APKs = %d / %d, want %d", serialStats.APKs, parallelStats.APKs, len(apks))
	}
	if want := 20 * 2; serialStats.PerRule[RuleIDSDCardStaging] != 20 ||
		serialStats.PerRule[RuleIDWorldReadable] != 20 || serialStats.Findings != want {
		t.Errorf("aggregate = %+v", serialStats)
	}
	if serialStats.Stats.Instructions == 0 || serialStats.Elapsed <= 0 {
		t.Errorf("throughput inputs missing: %+v", serialStats)
	}
	if serialStats.InstructionsPerSecond() <= 0 || serialStats.APKsPerSecond() <= 0 {
		t.Errorf("throughput not computed: %+v", serialStats)
	}
}

func TestScanCorpusNilArtifacts(t *testing.T) {
	reports, stats := NewEngine().ScanCorpus(5, 4, func(i int) *apk.APK { return nil })
	if len(reports) != 5 || stats.APKs != 0 || stats.Findings != 0 {
		t.Errorf("reports = %d, stats = %+v", len(reports), stats)
	}
}

func TestScanCorpusZeroItems(t *testing.T) {
	reports, stats := NewEngine().ScanCorpus(0, 8, func(i int) *apk.APK {
		t.Fatal("fetch called for empty corpus")
		return nil
	})
	if len(reports) != 0 || stats.APKs != 0 {
		t.Errorf("reports = %d, stats = %+v", len(reports), stats)
	}
}

func TestAnalyzeSourceError(t *testing.T) {
	_, stats, err := NewEngine().AnalyzeSource("x.smali", "garbage {")
	if err == nil {
		t.Fatal("no error for garbage input")
	}
	if stats.ParseErrors != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestScanCountersMatchStats pins the re-homing satellite: the per-scan
// ScanStats aggregates and the registry's engine-lifetime counters report
// the same numbers after one corpus scan on a fresh engine.
func TestScanCountersMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	eng := NewEngineWithOptions(EngineOptions{CacheCapacity: 256, Registry: reg})
	apks := []*apk.APK{
		testAPK(map[string]string{"smali/A.smali": wrap(`    const-string v2, "/sdcard/a.apk"
`)}),
		testAPK(map[string]string{"smali/A.smali": wrap(`    const-string v2, "/sdcard/a.apk"
`)}),
		testAPK(map[string]string{"smali/B.smali": wrap(`    const-string v0, "market://details?id=com.x"
`)}),
	}
	reports, stats := eng.ScanCorpus(len(apks), runtime.NumCPU(), func(i int) *apk.APK { return apks[i] })
	if len(reports) != len(apks) {
		t.Fatalf("reports = %d", len(reports))
	}

	snap := reg.Snapshot()
	if got := snap.Counter("analysis.scan.files"); got != int64(stats.Stats.Files) {
		t.Errorf("analysis.scan.files = %d, ScanStats.Files = %d", got, stats.Stats.Files)
	}
	if got := snap.Counter("analysis.scan.instructions"); got != int64(stats.Stats.Instructions) {
		t.Errorf("analysis.scan.instructions = %d, ScanStats = %d", got, stats.Stats.Instructions)
	}
	if got := snap.Counter("analysis.scan.findings"); got != int64(stats.Findings) {
		t.Errorf("analysis.scan.findings = %d, ScanStats.Findings = %d", got, stats.Findings)
	}
	if got := snap.Counter("analysis.scan.cache.hits"); got != int64(stats.CacheHits) {
		t.Errorf("analysis.scan.cache.hits = %d, ScanStats.CacheHits = %d", got, stats.CacheHits)
	}
	if got := snap.Counter("analysis.scan.cache.misses"); got != int64(stats.CacheMisses) {
		t.Errorf("analysis.scan.cache.misses = %d, ScanStats.CacheMisses = %d", got, stats.CacheMisses)
	}
	if got := snap.Counter("analysis.scan.cache.deduped"); got != int64(stats.CacheDeduped) {
		t.Errorf("analysis.scan.cache.deduped = %d, ScanStats.CacheDeduped = %d", got, stats.CacheDeduped)
	}
	// The sum of outcomes is the file count — the ScanStats invariant,
	// now visible through the registry too.
	sum := snap.Counter("analysis.scan.cache.hits") + snap.Counter("analysis.scan.cache.misses") +
		snap.Counter("analysis.scan.cache.deduped")
	if sum != int64(stats.Stats.Files) {
		t.Errorf("cache outcome sum = %d, files = %d", sum, stats.Stats.Files)
	}

	// CacheStats and the memo-layer registry counters must also agree, and
	// with one memo layer its outcomes are the per-file outcomes.
	cs, ok := eng.CacheStats()
	if !ok {
		t.Fatal("cached engine reported no cache stats")
	}
	for _, c := range []struct {
		name      string
		memo, eng int64
	}{
		{"hits", cs.Hits, int64(stats.CacheHits)},
		{"misses", cs.Misses, int64(stats.CacheMisses)},
		{"deduped", cs.Deduped, int64(stats.CacheDeduped)},
	} {
		if got := snap.Counter("analysis.cache.canon." + c.name); got != c.memo || got != c.eng {
			t.Errorf("analysis.cache.canon.%s = %d, CacheStats = %d, ScanStats = %d", c.name, got, c.memo, c.eng)
		}
	}
}
