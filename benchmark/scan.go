package main

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"time"

	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/corpus"
	"github.com/ghost-installer/gia/internal/obs"
)

// scanWorkers matches the 2-vCPU VM the bounds were set on.
const scanWorkers = 2

// cacheCapacity bounds the cached engine, as gia-bench's cached rows do.
const cacheCapacity = 4096

// scanApps generates the seed's corpus and flattens it the way gia-bench
// does: Play apps, each distinct pre-installed app once, then store apps.
// It then shuffles them with the seed, as submissions reach a vetting
// service mixed, so every batch holds a like mix of the populations.
// Unshuffled, the first 13 of a pass's 139 batches (the Play apps, 9% of
// the corpus) took ~50 ms each and most others 11–17 ms, so the p90 batch
// time sat on the edge between the two.
func scanApps(seed int64, scale float64) []corpus.AppMeta {
	c := corpus.Generate(corpus.Config{Seed: seed, Scale: scale})
	apps := slices.Clone(c.PlayApps)
	seen := map[string]bool{}
	for _, img := range c.Images {
		for _, app := range img.Apps {
			if !seen[app.Package] {
				seen[app.Package] = true
				apps = append(apps, app)
			}
		}
	}
	apps = append(apps, c.StoreApps...)
	rand.New(rand.NewSource(seed)).Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	return apps
}

// scanTotals are the outputs of one corpus pass that must not change
// between passes, engines or commits.
type scanTotals struct {
	apks, findings, scoreSum, parseErrors int
	perRule                               map[string]int
}

func (t *scanTotals) add(st analysis.ScanStats) {
	if t.perRule == nil {
		t.perRule = map[string]int{}
	}
	t.apks += st.APKs
	t.findings += st.Findings
	t.scoreSum += st.ScoreSum
	t.parseErrors += st.Stats.ParseErrors
	for id, n := range st.PerRule {
		t.perRule[id] += n
	}
}

func (t scanTotals) equal(o scanTotals) bool {
	return t.apks == o.apks && t.findings == o.findings && t.scoreSum == o.scoreSum &&
		t.parseErrors == o.parseErrors && maps.Equal(t.perRule, o.perRule)
}

func (t scanTotals) meanScore() float64 { return ratio(float64(t.scoreSum), float64(t.apks)) }

func (t scanTotals) String() string {
	var ids []string
	for id := range t.perRule {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, " %s=%d", id, t.perRule[id])
	}
	return fmt.Sprintf("apks=%d findings=%d mean_score=%.4f parse_errors=%d%s",
		t.apks, t.findings, t.meanScore(), t.parseErrors, b.String())
}

// checkScanPins compares a pass against the pinned outputs of the seed.
func checkScanPins(res *result, t scanTotals, want *expected) {
	s := want.Scan
	res.check(t.apks == s.APKs, "scan apks = %d, pinned %d", t.apks, s.APKs)
	res.check(t.findings == s.Findings, "scan findings = %d, pinned %d", t.findings, s.Findings)
	res.check(fmt.Sprintf("%.4f", t.meanScore()) == fmt.Sprintf("%.4f", s.MeanScore),
		"scan mean score = %.4f, pinned %.4f", t.meanScore(), s.MeanScore)
	res.check(maps.Equal(t.perRule, s.PerRule), "scan per-rule hits %v, pinned %v", t.perRule, s.PerRule)
}

// scanBatch is how many APKs one ScanCorpus call scans. A pass is a run of
// batches, and each batch's wall time is one latency sample: the wait of
// a vetting service that scans submissions in batches.
const scanBatch = 1000

// scanPass scans every app once with eng, batch by batch, appending each
// batch's wall time (ns) to lat unless lat is nil.
func scanPass(eng *analysis.Engine, apps []corpus.AppMeta, lat *[]int64) scanTotals {
	var t scanTotals
	for lo := 0; lo < len(apps); lo += scanBatch {
		batch := apps[lo:min(lo+scanBatch, len(apps))]
		start := time.Now()
		_, st := eng.ScanCorpus(len(batch), scanWorkers, func(i int) *apk.APK { return corpus.BuildAPKFor(batch[i]) })
		if lat != nil {
			*lat = append(*lat, int64(time.Since(start)))
		}
		t.add(st)
	}
	return t
}

func newScanEngine(cached bool, reg *obs.Registry) *analysis.Engine {
	if !cached {
		return analysis.NewEngine()
	}
	return analysis.NewEngineWithOptions(analysis.EngineOptions{CacheCapacity: cacheCapacity, Registry: reg})
}

// runScan is the scan-uncached and scan-cached workloads: one untimed
// pass, then whole timed passes over the corpus until the window is
// spent. The uncached engine redoes every analysis, and its first pass
// warms the heap and the runtime. The cached engine's first pass fills
// its memo layers, which then serve nearly every file. Timing the warm
// passes alone keeps the cold pass's share of the window, which would
// change with the number of passes that fit, out of the figures.
func runScan(cfg config, cached bool) (*result, error) {
	res := &result{}
	var apps []corpus.AppMeta
	setup := make([]float64, cfg.setupReps)
	for i := range setup {
		t := time.Now()
		apps = scanApps(cfg.seed, cfg.scale)
		setup[i] = time.Since(t).Seconds()
	}
	if cfg.trace {
		return res, traceScan(cfg, cached, apps, res)
	}

	eng := newScanEngine(cached, nil)
	first := scanPass(eng, apps, nil)
	var lat []int64
	passes := 0
	u0 := readUsage()
	mem := sampleMem(ownMem)
	start := time.Now()
	for passes == 0 || time.Since(start) < cfg.window {
		t := scanPass(eng, apps, &lat)
		passes++
		res.check(t.equal(first), "pass %d differs from pass 1: %v, pass 1 %v", passes+1, t, first)
	}
	wall := time.Since(start)
	memMB := mem()
	u := readUsage().since(u0)
	res.attempted = int64((1 + passes) * len(apps))
	res.note("1 untimed pass, then %d passes in %.2fs; pass 1 %v", passes, wall.Seconds(), first)

	res.check(first.parseErrors == 0, "%d files failed to parse", first.parseErrors)
	if cached {
		// The cache must not change a single verdict: one uncached pass,
		// outside the window, gives the reference counts.
		_, st := analysis.NewEngine().ScanCorpus(len(apps), scanWorkers, func(i int) *apk.APK {
			return corpus.BuildAPKFor(apps[i])
		})
		var ref scanTotals
		ref.add(st)
		res.check(ref.equal(first), "cached engine %v, uncached engine %v", first, ref)
	}
	if cfg.expect != nil {
		checkScanPins(res, first, cfg.expect)
	}
	units := float64(passes * len(apps))
	res.addEndToEnd(setup, units/wall.Seconds(), ratio(us(u.CPUNs), units), memMB, lat)
	return res, nil
}

var (
	spAPK     = spanName("scan.apk")
	spBuild   = spanName("corpus.build_apk")
	spScanAPK = spanName("analysis.scan_apk")
	spReplica = spanName("analysis.replica")
	spParse   = spanName("analysis.parse")
	spRules   = func() []int {
		var s []int
		for _, id := range ruleIDs {
			s = append(s, spanName("analysis.rule."+id))
		}
		return s
	}()
)

// traceScan is the traced pass of a scan workload, run serially in three
// equal parts of the window. Each traced APK runs BuildAPKFor, then
// ScanAPK, then a replica of the analysis ScanAPK runs on an uncached
// engine — ParseBytes and each Rule.Check per smali file, through the
// exported API — which splits ScanAPK's time into parse and rules. The
// replica leaves CFGs and taint summaries to the rules that ask for them,
// as ScanAPK does, and its time is not part of the traced e2e figure.
// The first part times build + ScanAPK untraced, for the Go runtime's cost
// per APK; the second times the traced part's work untraced, replica
// included, as the reference for the tracing overhead.
func traceScan(cfg config, cached bool, apps []corpus.AppMeta, res *result) error {
	reg := obs.NewRegistry()
	eng := newScanEngine(cached, reg)
	if cached {
		// The untraced run's cold pass, so the traced APKs see the warm
		// cache its later passes see.
		eng.ScanCorpus(len(apps), scanWorkers, func(i int) *apk.APK { return corpus.BuildAPKFor(apps[i]) })
	}
	rules := eng.Rules()
	next := 0
	fetch := func() *apk.APK {
		a := corpus.BuildAPKFor(apps[next%len(apps)])
		next++
		return a
	}
	part := cfg.window / 3
	repeat := func(f func()) (n int, wall time.Duration) {
		start := time.Now()
		for n == 0 || time.Since(start) < part {
			f()
			n++
		}
		return n, time.Since(start)
	}

	u0 := readUsage()
	goN, _ := repeat(func() { eng.ScanAPK(fetch()) })
	goUse := readUsage().since(u0)
	refN, refWall := repeat(func() {
		a := fetch()
		eng.ScanAPK(a)
		replicaScan(nil, 0, 0, rules, a)
	})

	ln := newLane(1)
	var (
		n, files, instr, mismatched int
		build, scan, analyzed       int64
		replica                     int64
		hitNs, missNs               int64
		hits, misses                int
	)
	start := time.Now()
	for n == 0 || time.Since(start) < part {
		req := ln.next()
		root := ln.begin(spAPK, 0, req)
		sp := ln.begin(spBuild, root.id, req)
		a := fetch()
		build += sp.end()
		sp = ln.begin(spScanAPK, root.id, req)
		rep := eng.ScanAPK(a)
		d := sp.end()
		scan += d
		root.end()

		rs := ln.begin(spReplica, 0, req)
		found, work := replicaScan(ln, rs.id, req, rules, a)
		replica += rs.end()
		if found != len(rep.Findings) {
			mismatched++
		}
		if cached && rep.CacheMisses == 0 {
			hits++
			hitNs += d
		} else {
			// ScanAPK analysed at least one file itself; charge it the
			// replica's parse and rule time.
			misses++
			missNs += d
			analyzed += work
		}
		files += rep.Stats.Files
		instr += rep.Stats.Instructions
		n++
	}
	wall := time.Since(start)
	res.attempted = int64(n)
	res.check(mismatched == 0, "replica findings differ from ScanAPK on %d of %d APKs", mismatched, n)

	tot := sumLanes([]*lane{ln})
	e2e := int64(wall) - replica
	other := e2e - build - scan
	otherFrac := ratio(float64(other), float64(e2e))
	res.add("corpus.build_apk.us_per_apk", ratio(us(build), float64(n)), "us")
	res.add("analysis.scan_apk.us_per_apk", ratio(us(scan), float64(n)), "us")
	res.add("analysis.parse.us_per_apk", tot.perUnit(spParse, n), "us")
	for i, id := range ruleIDs {
		res.add("analysis.rule."+id+".us_per_apk", tot.perUnit(spRules[i], n), "us")
	}
	res.add("analysis.other.us_per_apk", ratio(us(scan-analyzed), float64(n)), "us")
	res.add("analysis.files_per_apk", ratio(float64(files), float64(n)), "count")
	res.add("analysis.instructions_per_apk", ratio(float64(instr), float64(n)), "count")
	if cached {
		snap := reg.Snapshot()
		for _, layer := range []string{"raw", "canon", "summaries"} {
			p := "analysis.cache." + layer
			h := snap.Counter(p + ".hits")
			all := h + snap.Counter(p+".misses") + snap.Counter(p+".deduped")
			res.add(p+".hit_ratio", ratio(float64(h), float64(all)), "ratio")
		}
		res.add("analysis.cache.hit_apk_us", ratio(us(hitNs), float64(hits)), "us")
		res.add("analysis.cache.miss_apk_us", ratio(us(missNs), float64(misses)), "us")
	}
	res.add("scan.other_frac", otherFrac, "ratio")
	res.addGo(goUse, goN)
	overhead := ratio(float64(wall)/float64(n), float64(refWall)/float64(refN)) - 1
	res.add("trace_overhead_frac", overhead, "ratio")
	res.note("traced %d APKs: e2e %.1f us/apk = build %.1f + scan_apk %.1f + other %.1f; replica %.1f us/apk",
		n, ratio(us(e2e), float64(n)), ratio(us(build), float64(n)), ratio(us(scan), float64(n)),
		ratio(us(other), float64(n)), ratio(us(replica), float64(n)))
	res.check(otherFrac <= 0.15, "scan.other_frac %.3f exceeds 0.15", otherFrac)
	return writeTrace(cfg, res, []*lane{ln})
}

// replicaScan repeats the analysis ScanAPK runs on an uncached engine,
// one span per ParseBytes and per Rule.Check. It returns the findings it
// produced and the time the spans took.
func replicaScan(ln *lane, parent, req uint64, rules []analysis.Rule, a *apk.APK) (found int, ns int64) {
	var names []string
	for name := range a.Files {
		if strings.HasPrefix(name, "smali/") {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		sp := ln.begin(spParse, parent, req)
		cls, err := analysis.ParseBytes(name, a.Files[name])
		ns += sp.end()
		if err != nil {
			continue
		}
		ci := analysis.NewClassInfo(cls)
		for i, r := range rules {
			sp := ln.begin(spRules[i], parent, req)
			found += len(r.Check(ci))
			ns += sp.end()
		}
	}
	return found, ns
}

// writeTrace exports the spans and notes where they went.
func writeTrace(cfg config, res *result, lanes []*lane) error {
	kept, dropped, err := writeSpans(cfg.spans, lanes)
	if err != nil {
		return err
	}
	res.note("spans: %d written to %s, %d beyond the per-lane cap counted but not written", kept, cfg.spans, dropped)
	return nil
}
