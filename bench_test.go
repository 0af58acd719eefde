package gia

// This file is the benchmark harness of deliverable (d): one benchmark per
// table and figure of the paper's evaluation. Run with
//
//	go test -bench=. -benchmem
//
// Tables VIII, IX and X are true micro-benchmarks of the defense code
// paths (the paper's performance experiments); the remaining benchmarks
// regenerate each table's underlying experiment end-to-end, so their ns/op
// measures the cost of reproducing the result, and their correctness is
// asserted inside the loop.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/corpus"
	"github.com/ghost-installer/gia/internal/device"
	"github.com/ghost-installer/gia/internal/dm"
	"github.com/ghost-installer/gia/internal/experiment"
	"github.com/ghost-installer/gia/internal/fuse"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/intents"
	"github.com/ghost-installer/gia/internal/measure"
	"github.com/ghost-installer/gia/internal/procfs"
	"github.com/ghost-installer/gia/internal/sig"
	"github.com/ghost-installer/gia/internal/sim"
	"github.com/ghost-installer/gia/internal/vfs"
)

// benchCorpus is generated once at a scale that keeps corpus-driven
// benchmarks meaningful but fast.
var (
	benchCorpusOnce sync.Once
	benchCorpusVal  *corpus.Corpus
)

func benchCorpus() *corpus.Corpus {
	benchCorpusOnce.Do(func() {
		benchCorpusVal = corpus.Generate(corpus.Config{Seed: 2017, Scale: 0.2})
	})
	return benchCorpusVal
}

// --- Table I ---------------------------------------------------------------

func BenchmarkTableI_AttackSteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiment.TableI(); len(tab.Rows) != 4 {
			b.Fatal("table I shape")
		}
	}
}

// --- Tables II–IV, VI: the measurement study --------------------------------

// BenchmarkMeasureCorpus times what Tables II, III and IV render from:
// building and scanning the corpus' Play and unique pre-installed apps on
// the shared cached engine (cold on the first iteration, warm after), then
// tallying both populations and the Play redirect census.
func BenchmarkMeasureCorpus(b *testing.B) {
	c := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := experiment.Measure(nil, c, runtime.NumCPU())
		if cls := measure.Tally(m.Play); cls.VulnerableFracKnown() < 0.8 {
			b.Fatalf("play vulnerable frac = %f", cls.VulnerableFracKnown())
		}
		if cls := measure.Tally(m.Preinstalled); cls.VulnerableFracKnown() < 0.9 {
			b.Fatalf("pre-installed vulnerable frac = %f", cls.VulnerableFracKnown())
		}
		if measure.RedirectCensus(m.Play).Redirecting == 0 {
			b.Fatal("no redirecting apps")
		}
	}
}

func BenchmarkTableVI_InstallPackagesCensus(b *testing.B) {
	c := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := measure.InstallPackagesCensus(c.Images)
		if len(rows) != 3 {
			b.Fatal("census shape")
		}
	}
}

// --- Table V: verified vulnerable pre-installed installers ------------------

func BenchmarkTableV_VulnerableInstallers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.TableV(int64(i))
		if err != nil || len(tab.Rows) != 5 {
			b.Fatalf("table V: %v", err)
		}
	}
}

// --- Table VII: defense matrix ----------------------------------------------

func BenchmarkTableVII_DefenseMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.TableVII(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range tab.Rows {
			if row[4] != "yes" {
				b.Fatalf("defense %s ineffective", row[0])
			}
		}
	}
}

// --- Table VIII: FUSE DAC performance ---------------------------------------

func fuseBenchFS(patched bool) (*vfs.FS, vfs.UID) {
	fs := vfs.New(func() time.Duration { return 0 })
	daemon := fuse.New("/sdcard", func(vfs.UID, string) bool { return true })
	daemon.SetPatched(patched)
	_ = fs.MkdirAll("/sdcard/store", vfs.Root, vfs.ModeDir)
	_ = fs.Mount("/sdcard", daemon, 0)
	return fs, vfs.UID(10010)
}

func benchFuseWrite(b *testing.B, patched bool) {
	fs, owner := fuseBenchFS(patched)
	payload := make([]byte, 1<<20)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fs.WriteFile("/sdcard/store/app.apk", payload, owner, vfs.ModeShared); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFuseRead(b *testing.B, patched bool) {
	fs, owner := fuseBenchFS(patched)
	payload := make([]byte, 1<<20)
	if err := fs.WriteFile("/sdcard/store/app.apk", payload, owner, vfs.ModeShared); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.ReadFile("/sdcard/store/app.apk", owner); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVIII_FuseDACWriteOrg(b *testing.B) { benchFuseWrite(b, false) }
func BenchmarkTableVIII_FuseDACWriteMod(b *testing.B) { benchFuseWrite(b, true) }
func BenchmarkTableVIII_FuseDACReadOrg(b *testing.B)  { benchFuseRead(b, false) }
func BenchmarkTableVIII_FuseDACReadMod(b *testing.B)  { benchFuseRead(b, true) }

// --- Tables IX and X: IntentFirewall overhead --------------------------------

func benchIntentDelivery(b *testing.B, detection, origin bool) {
	sched := sim.New(1)
	procs := procfs.NewTable()
	ams := intents.New(sched, procs, intents.Options{
		DeliveryLatency: time.Microsecond,
		Perms:           func(vfs.UID, string) bool { return true },
		UIDOf:           func(string) (vfs.UID, bool) { return 10001, true },
	})
	ams.Firewall().EnableDetection(detection)
	ams.Firewall().EnableOrigin(origin)
	ams.Firewall().SetThreshold(time.Nanosecond)
	ams.RegisterActivity("com.recv", "A", true, "", func(intents.Intent) string { return "x" })
	senders := []string{"com.a", "com.b"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ams.StartActivity(senders[i%2], intents.Intent{TargetPkg: "com.recv", Component: "A"}); err != nil {
			b.Fatal(err)
		}
		sched.Run()
	}
}

func BenchmarkTableIX_IntentDeliveryBaseline(b *testing.B)  { benchIntentDelivery(b, false, false) }
func BenchmarkTableIX_IntentDeliveryDetection(b *testing.B) { benchIntentDelivery(b, true, false) }
func BenchmarkTableX_IntentDeliveryOrigin(b *testing.B)     { benchIntentDelivery(b, false, true) }

// --- Figure 1: AIT traces ----------------------------------------------------

func BenchmarkFigure1_AITTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Figure1(int64(i))
		if err != nil || len(tab.Rows) == 0 {
			b.Fatalf("figure 1: %v", err)
		}
	}
}

// --- Section III-B: hijack studies -------------------------------------------

func benchHijack(b *testing.B, prof installer.Profile, strategy attack.Strategy) {
	for i := 0; i < b.N; i++ {
		s, err := experiment.NewScenario(prof, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		atk := attack.NewTOCTOU(s.Mal, attack.ConfigForStore(prof, strategy), s.Target)
		if err := atk.Launch(); err != nil {
			b.Fatal(err)
		}
		res := s.RunAIT()
		atk.Stop()
		if !res.Hijacked {
			b.Fatalf("hijack failed: %v", res.Err)
		}
	}
}

func BenchmarkHijack_Amazon_FileObserver(b *testing.B) {
	benchHijack(b, installer.Amazon(), attack.StrategyFileObserver)
}

func BenchmarkHijack_DTIgnite_WaitAndSee(b *testing.B) {
	benchHijack(b, installer.DTIgnite(), attack.StrategyWaitAndSee)
}

func BenchmarkHijack_Xiaomi_FileObserver(b *testing.B) {
	benchHijack(b, installer.Xiaomi(), attack.StrategyFileObserver)
}

// --- Chaos harness: Explorer throughput ---------------------------------------

// benchExplorerSweep measures schedule-exploration throughput: each
// benchmark iteration is one complete AIT hijack scenario checked under the
// chaos harness, swept across b.N seeds by a pool of the given size. Every
// worker draws its device from a private arena (boot once, reset per
// schedule). The schedules/s metric is the headline number for sizing
// seed × jitter grids.
func benchExplorerSweep(b *testing.B, workerCount int) {
	fn := experiment.HijackRunFunc(installer.Amazon(), attack.StrategyFileObserver)
	seeds := make([]int64, b.N)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	ex := &chaos.Explorer{Workers: workerCount, WorkerState: experiment.ArenaWorkerState(nil)}
	b.ResetTimer()
	res := ex.Sweep(seeds, nil, fn)
	b.StopTimer()
	if res.Violations != 0 {
		b.Fatalf("%d violations in a plain sweep (first: %v)", res.Violations, res.First.Err)
	}
	if res.Explored != b.N {
		b.Fatalf("explored %d schedules, want %d", res.Explored, b.N)
	}
	b.ReportMetric(float64(res.Explored)/b.Elapsed().Seconds(), "schedules/s")
}

func BenchmarkExplorerSweep_1Worker(b *testing.B) { benchExplorerSweep(b, 1) }
func BenchmarkExplorerSweep_NumCPU(b *testing.B)  { benchExplorerSweep(b, runtime.NumCPU()) }

// --- Experiment engine: worker-pool scaling ----------------------------------

// benchAllTables regenerates the full 22-table evaluation at reduced scale;
// the 1-worker vs NumCPU pair quantifies the engine's pool speed-up (the
// tables themselves are identical for any worker count).
func benchAllTables(b *testing.B, workerCount int) {
	for i := 0; i < b.N; i++ {
		tables, err := experiment.AllTables(experiment.Options{
			Seed: 2017, Scale: 0.05, PerfReps: 2, DAPPInstalls: 6, Workers: workerCount,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) != 22 {
			b.Fatalf("tables = %d, want 22", len(tables))
		}
	}
}

func BenchmarkAllTables_1Worker(b *testing.B) { benchAllTables(b, 1) }
func BenchmarkAllTables_NumCPU(b *testing.B)  { benchAllTables(b, runtime.NumCPU()) }

func benchFleetStudy(b *testing.B, workerCount int) {
	for i := 0; i < b.N; i++ {
		outcomes, err := experiment.FleetStudy(4, 2017, workerCount)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outcomes {
			if o.Rate() != 1.0 {
				b.Fatalf("%s fleet rate = %.2f, want 1.0", o.Store, o.Rate())
			}
		}
	}
}

func BenchmarkFleetStudy_1Worker(b *testing.B) { benchFleetStudy(b, 1) }
func BenchmarkFleetStudy_NumCPU(b *testing.B)  { benchFleetStudy(b, runtime.NumCPU()) }

// --- Section III-C: DM symlink attack ----------------------------------------

func benchDMSteal(b *testing.B, policy dm.SymlinkPolicy, wantWin bool) {
	for i := 0; i < b.N; i++ {
		dev, err := device.Boot(device.Profile{Name: "n5", Vendor: "lge", DMPolicy: policy, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		mal, err := attack.DeployMalware(dev, "com.fun.game")
		if err != nil {
			b.Fatal(err)
		}
		victim, err := dev.PMS.InstallFromParsed(BuildAPK(Manifest{
			Package: "com.android.vending", VersionCode: 1, Label: "Play",
		}, nil, sig.NewKey("play")))
		if err != nil {
			b.Fatal(err)
		}
		dev.Run()
		secret := "/data/data/com.android.vending/files/secret"
		if err := dev.FS.WriteFile(secret, []byte("tokens"), victim.UID, vfs.ModePrivate); err != nil {
			b.Fatal(err)
		}
		atk, err := attack.NewDMSymlink(mal)
		if err != nil {
			b.Fatal(err)
		}
		won := false
		atk.Steal(secret, 50, func(data []byte, err error) {
			won = err == nil && string(data) == "tokens"
		})
		dev.Sched.RunUntil(dev.Sched.Now() + 2*time.Minute)
		if won != wantWin {
			b.Fatalf("policy %v: won=%v want %v", policy, won, wantWin)
		}
	}
}

func BenchmarkDMSymlink_Legacy(b *testing.B)  { benchDMSteal(b, dm.PolicyLegacy, true) }
func BenchmarkDMSymlink_Recheck(b *testing.B) { benchDMSteal(b, dm.PolicyRecheck, true) }
func BenchmarkDMSymlink_Fixed(b *testing.B)   { benchDMSteal(b, dm.PolicyFixed, false) }

// --- Section III-D: redirect study --------------------------------------------

func BenchmarkRedirect_Study(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outcomes, err := experiment.RedirectStudy(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !outcomes[0].UserDeceived || outcomes[1].UserDeceived {
			b.Fatalf("redirect outcomes = %+v", outcomes)
		}
	}
}

// --- Section IV-A: static-analysis engine throughput ----------------------------

// benchArtifacts prebuilds a slice of corpus APK artifacts once so the scan
// benchmarks measure the analysis engine, not APK construction.
var (
	benchArtifactsOnce sync.Once
	benchArtifactsVal  []*apk.APK
)

func benchArtifacts() []*apk.APK {
	benchArtifactsOnce.Do(func() {
		apps := benchCorpus().PlayApps
		if len(apps) > 600 {
			apps = apps[:600]
		}
		benchArtifactsVal = make([]*apk.APK, len(apps))
		for i, app := range apps {
			benchArtifactsVal[i] = corpus.BuildAPKFor(app)
		}
	})
	return benchArtifactsVal
}

// benchCorpusScan drives the parallel corpus scanner over prebuilt
// artifacts with the given worker-pool size. Compare the serial and
// parallel variants to see the pool's speedup on a multi-core host.
func benchCorpusScan(b *testing.B, workers int) {
	artifacts := benchArtifacts()
	eng := analysis.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats := eng.ScanCorpus(len(artifacts), workers, func(j int) *apk.APK {
			return artifacts[j]
		})
		if stats.Findings == 0 || stats.Stats.ParseErrors != 0 {
			b.Fatalf("scan stats = %+v", stats)
		}
	}
}

func BenchmarkCorpusScan_1Worker(b *testing.B) { benchCorpusScan(b, 1) }
func BenchmarkCorpusScan_NumCPU(b *testing.B)  { benchCorpusScan(b, runtime.NumCPU()) }

// --- Section IV-A: content-addressed analysis cache ------------------------------

// scanArtifactsWith runs one full corpus scan over the prebuilt artifacts
// through the given engine and sanity-checks the result.
func scanArtifactsWith(b *testing.B, eng *analysis.Engine, workers int) analysis.ScanStats {
	artifacts := benchArtifacts()
	_, stats := eng.ScanCorpus(len(artifacts), workers, func(j int) *apk.APK {
		return artifacts[j]
	})
	if stats.Findings == 0 || stats.Stats.ParseErrors != 0 {
		b.Fatalf("scan stats = %+v", stats)
	}
	return stats
}

// BenchmarkScanArtifactsNoCache is the uncached baseline: every smali file
// is lexed, parsed and analyzed from scratch on every scan.
func BenchmarkScanArtifactsNoCache(b *testing.B) {
	eng := analysis.NewEngine()
	benchArtifacts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanArtifactsWith(b, eng, runtime.NumCPU())
	}
}

// BenchmarkScanArtifactsCold measures the first scan through a fresh
// cache: every template pays canonicalization + hashing + one analysis,
// and template twins are served by singleflight dedup.
func BenchmarkScanArtifactsCold(b *testing.B) {
	benchArtifacts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := analysis.NewEngineWithOptions(analysis.EngineOptions{CacheCapacity: 4096})
		scanArtifactsWith(b, eng, runtime.NumCPU())
		if cs, _ := eng.CacheStats(); cs.Misses == 0 {
			b.Fatalf("cold scan had no misses: %+v", cs)
		}
	}
}

// BenchmarkScanArtifactsWarm measures steady state: the cache is primed,
// so each file costs canonicalization + hashing + finding rehydration.
func BenchmarkScanArtifactsWarm(b *testing.B) {
	eng := analysis.NewEngineWithOptions(analysis.EngineOptions{CacheCapacity: 4096})
	scanArtifactsWith(b, eng, runtime.NumCPU()) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before, _ := eng.CacheStats()
		stats := scanArtifactsWith(b, eng, runtime.NumCPU())
		if cs, _ := eng.CacheStats(); cs.Hits-before.Hits != int64(stats.Stats.Files) {
			b.Fatalf("warm scan not fully cached: %d hits for %d files", cs.Hits-before.Hits, stats.Stats.Files)
		}
	}
}

// BenchmarkLexer measures the zero-copy smali front end alone (lexing +
// parsing to IR, no CFG/dataflow/rules).
func BenchmarkLexer(b *testing.B) {
	var src []byte
	for _, a := range benchArtifacts() {
		if s, ok := a.Files["smali/Installer.smali"]; ok {
			src = s
			break
		}
	}
	if len(src) == 0 {
		b.Fatal("no artifact carries smali/Installer.smali")
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.ParseBytes("bench.smali", src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section IV studies --------------------------------------------------------

func BenchmarkKeyStudy(b *testing.B) {
	c := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := measure.PlatformKeyStudy(c)
		if len(rows) != 3 {
			b.Fatal("key study shape")
		}
	}
}

func BenchmarkHareStudy(b *testing.B) {
	c := benchCorpus()
	var samsung []corpus.FactoryImage
	for _, img := range c.Images {
		if img.Vendor == "samsung" {
			samsung = append(samsung, img)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := measure.HareStudy(samsung, 10)
		if res.VulnerableCases == 0 {
			b.Fatal("no hare cases")
		}
	}
}

// --- Ablation sweeps (extensions; DESIGN.md X1–X3) ------------------------------

func BenchmarkAblation_ReactionLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiment.ReactionLatencySweep(installer.Amazon(),
			[]time.Duration{5 * time.Millisecond, 300 * time.Millisecond}, 3, int64(i), 1)
		if err != nil {
			b.Fatal(err)
		}
		if points[0].SuccessRate != 1 || points[1].SuccessRate != 0 {
			b.Fatalf("sweep shape = %+v", points)
		}
	}
}

func BenchmarkAblation_WaitDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiment.WaitDelaySweep(installer.DTIgnite(),
			[]time.Duration{2 * time.Second}, 2, int64(i), 1)
		if err != nil {
			b.Fatal(err)
		}
		if points[0].SuccessRate != 1 {
			b.Fatalf("sweep shape = %+v", points)
		}
	}
}

func BenchmarkAblation_DMGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiment.DMGapSweep([]time.Duration{2 * time.Millisecond}, 30, 1, int64(i), 1)
		if err != nil {
			b.Fatal(err)
		}
		if points[0].SuccessRate != 1 {
			b.Fatalf("sweep shape = %+v", points)
		}
	}
}

func BenchmarkSuggestionStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outcomes, err := experiment.SuggestionStudy(int64(i), 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outcomes {
			if o.HardenedHijacked {
				b.Fatalf("hardened profile fell: %+v", o)
			}
		}
	}
}

// --- Section VI-B: DAPP hot path -----------------------------------------------

func BenchmarkDAPP_SignatureGrab1MiB(b *testing.B) {
	res, err := experiment.DAPPSignaturePerf([]int{1 << 20}, 1)
	if err != nil {
		b.Fatal(err)
	}
	_ = res
	fs := vfs.New(func() time.Duration { return 0 })
	_ = fs.MkdirAll("/sdcard/store", vfs.Root, vfs.ModeDir)
	a := BuildAPK(Manifest{Package: "com.p", VersionCode: 1, Label: "P"}, nil, NewKey("p"))
	a.Padding = 1 << 20
	if err := fs.WriteFile("/sdcard/store/a.apk", a.Encode(), vfs.UID(10010), vfs.ModeShared); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(a.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := fs.ReadFile("/sdcard/store/a.apk", vfs.UID(10020))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeAPK(data); err != nil {
			b.Fatal(err)
		}
	}
}
