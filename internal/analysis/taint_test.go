package analysis

import (
	"reflect"
	"testing"
)

// crossMethodStaging is the acceptance fixture for the interprocedural
// engine: the staging path is produced in one method (an Environment
// getter — no /sdcard literal anywhere) and consumed by the install sink
// in another. The old intraprocedural SDCardStagingRule cannot see it; the
// taint rule must.
const crossMethodStaging = `.class public Lcom/t/Installer;
.method private getStageDir()Ljava/lang/String;
    invoke-static {}, Landroid/os/Environment;->getExternalStorageDirectory()Ljava/io/File;
    move-result-object v0
    return-object v0
.end method
.method public installDownloaded()V
    invoke-direct {p0}, Lcom/t/Installer;->getStageDir()Ljava/lang/String;
    move-result-object v2
    invoke-virtual {p1, v2, v0}, Landroid/content/Intent;->setDataAndType(Landroid/net/Uri;Ljava/lang/String;)Landroid/content/Intent;
    return-void
.end method
`

// paramSinkStaging exercises the other summary direction: the sink lives
// in a callee and the tainted path is handed to it as an argument, so the
// flow is attributed at the caller's call site via SinkParams.
const paramSinkStaging = `.class public Lcom/t/C;
.method private doInstall(Ljava/lang/String;)V
    invoke-virtual {p0, p1, v0}, Landroid/content/Intent;->setDataAndType(Landroid/net/Uri;Ljava/lang/String;)Landroid/content/Intent;
    return-void
.end method
.method public run()V
    const-string v1, "/sdcard/dl/stage.apk"
    invoke-direct {p0, v1}, Lcom/t/C;->doInstall(Ljava/lang/String;)V
    return-void
.end method
`

// TestCrossMethodStagingAcceptance pins the PR's acceptance criterion:
// the cross-method fixture is flagged by the taint rule, NOT by the old
// intraprocedural rule, and not by the taint rule's own intraprocedural
// baseline.
func TestCrossMethodStagingAcceptance(t *testing.T) {
	if got := checkRule(t, SDCardStagingRule{}, crossMethodStaging); len(got) != 0 {
		t.Errorf("intraprocedural rule flagged the cross-method fixture: %v", got)
	}
	if got := checkRule(t, TaintStagingRule{IntraOnly: true}, crossMethodStaging); len(got) != 0 {
		t.Errorf("intra-only taint baseline flagged the cross-method fixture: %v", got)
	}
	got := checkRule(t, TaintStagingRule{}, crossMethodStaging)
	if len(got) != 1 {
		t.Fatalf("taint rule: %d findings, want 1: %v", len(got), got)
	}
	f := got[0]
	if f.RuleID != RuleIDTaintStaging || f.Method != "installDownloaded()V" {
		t.Errorf("finding misattributed: %+v", f)
	}
	if f.Line != 10 {
		t.Errorf("finding at line %d, want the setDataAndType call (10)", f.Line)
	}
}

func TestTaintFlowsIntoCalleeSink(t *testing.T) {
	got := checkRule(t, TaintStagingRule{}, paramSinkStaging)
	if len(got) != 1 {
		t.Fatalf("callee-sink flow: %d findings, want 1: %v", len(got), got)
	}
	if got[0].Method != "run()V" {
		t.Errorf("flow not attributed at the caller's call site: %+v", got[0])
	}
	if intra := checkRule(t, TaintStagingRule{IntraOnly: true}, paramSinkStaging); len(intra) != 0 {
		t.Errorf("intra baseline saw the callee sink: %v", intra)
	}
}

func TestTaintDirectFlowAlsoSeenIntraprocedurally(t *testing.T) {
	src := wrap(`    const-string v2, "/sdcard/dl/stage.apk"
    invoke-virtual {p1, v2, v0}, Landroid/content/Intent;->setDataAndType(Landroid/net/Uri;Ljava/lang/String;)Landroid/content/Intent;
`)
	inter := checkRule(t, TaintStagingRule{}, src)
	intra := checkRule(t, TaintStagingRule{IntraOnly: true}, src)
	if len(inter) != 1 || len(intra) != 1 {
		t.Fatalf("direct flow: inter=%v intra=%v", inter, intra)
	}
	if !reflect.DeepEqual(inter, intra) {
		t.Errorf("same-method flow diverges between modes:\ninter %v\nintra %v", inter, intra)
	}
}

func TestTaintRecursiveSummariesTerminate(t *testing.T) {
	// Mutual recursion with a base case: a returns p1 directly on one arm
	// and b(p1) on the other, b returns a(p1). The pass-through fact must
	// circulate around the SCC until both summaries carry it — and a pure
	// cycle with no base case would correctly settle at bottom instead.
	src := `.class public Lcom/t/R;
.method public a(Ljava/lang/String;)Ljava/lang/String;
    if-eqz v5, :rec
    return-object p1
:rec
    invoke-virtual {p0, p1}, Lcom/t/R;->b(Ljava/lang/String;)Ljava/lang/String;
    move-result-object v0
    return-object v0
.end method
.method public b(Ljava/lang/String;)Ljava/lang/String;
    invoke-virtual {p0, p1}, Lcom/t/R;->a(Ljava/lang/String;)Ljava/lang/String;
    move-result-object v0
    return-object v0
.end method
`
	cls, err := ParseFile("r.smali", src)
	if err != nil {
		t.Fatal(err)
	}
	sums := ComputeSummaries(NewClassInfo(cls))
	for _, desc := range []string{
		"Lcom/t/R;->a(Ljava/lang/String;)Ljava/lang/String;",
		"Lcom/t/R;->b(Ljava/lang/String;)Ljava/lang/String;",
	} {
		sum, ok := sums.Of(desc)
		if !ok {
			t.Fatalf("summary missing for %s", desc)
		}
		// p1 passes through the mutual recursion into both returns.
		if sum.Ret&ParamTaint(1) == 0 {
			t.Errorf("%s lost pass-through param taint: %+v", desc, sum)
		}
	}
}

func TestTaintIntentExtraTracked(t *testing.T) {
	src := `.class public Lcom/t/E;
.method public pull(Landroid/content/Intent;)Ljava/lang/String;
    const-string v0, "path"
    invoke-virtual {p1, v0}, Landroid/content/Intent;->getStringExtra(Ljava/lang/String;)Ljava/lang/String;
    move-result-object v1
    return-object v1
.end method
`
	cls, err := ParseFile("e.smali", src)
	if err != nil {
		t.Fatal(err)
	}
	sum, ok := ComputeSummaries(NewClassInfo(cls)).Of("Lcom/t/E;->pull(Landroid/content/Intent;)Ljava/lang/String;")
	if !ok {
		t.Fatal("summary missing")
	}
	if sum.Ret&TaintIntentExtra == 0 {
		t.Errorf("intent-extra source not tracked: %+v", sum)
	}
	// Intent extras are tracked in the lattice but are not the SD-card
	// staging pattern; the staging rule must not fire on them.
	if got := checkRule(t, TaintStagingRule{}, src); len(got) != 0 {
		t.Errorf("staging rule fired on intent extra: %v", got)
	}
}

// TestTaintConstOverwriteKillsTaint mirrors the world-readable overwrite
// regression for the taint lattice: a tainted register overwritten with a
// benign constant before the sink must not flag.
func TestTaintConstOverwriteKillsTaint(t *testing.T) {
	src := wrap(`    const-string v2, "/sdcard/dl/stage.apk"
    const-string v2, "content://downloads/1"
    invoke-virtual {p1, v2, v0}, Landroid/content/Intent;->setDataAndType(Landroid/net/Uri;Ljava/lang/String;)Landroid/content/Intent;
`)
	if got := checkRule(t, TaintStagingRule{}, src); len(got) != 0 {
		t.Errorf("killed taint still flagged: %v", got)
	}
}

// FuzzSummaries pins the containment invariant the whole design rests on:
// on any parsable input, the interprocedural findings are a superset of
// the intraprocedural baseline's. Unknown callees degrade to pass-through
// (top) rather than bottom, so adding summary knowledge can only add
// findings, never remove one.
func FuzzSummaries(f *testing.F) {
	f.Add(crossMethodStaging)
	f.Add(paramSinkStaging)
	f.Add(goodSmali)
	f.Add(wrap(`    const-string v2, "/sdcard/dl/stage.apk"
    invoke-virtual {p1, v2, v0}, Landroid/content/Intent;->setDataAndType(Landroid/net/Uri;Ljava/lang/String;)Landroid/content/Intent;
`))
	f.Fuzz(func(t *testing.T, src string) {
		cls, err := ParseFile("fuzz.smali", src)
		if err != nil {
			return
		}
		inter := TaintStagingRule{}.Check(NewClassInfo(cls))
		intra := TaintStagingRule{IntraOnly: true}.Check(NewClassInfo(cls))
		interSet := make(map[Finding]bool, len(inter))
		for _, f := range inter {
			interSet[f] = true
		}
		for _, f := range intra {
			if !interSet[f] {
				t.Fatalf("intraprocedural finding missing from interprocedural results: %+v\ninter: %v", f, inter)
			}
		}
	})
}

func TestSummaryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cls, err := ParseFile("budget.smali", crossMethodStaging)
	if err != nil {
		t.Fatal(err)
	}
	n := cls.Instructions()
	got := testing.AllocsPerRun(500, func() {
		ComputeSummaries(NewClassInfo(cls))
	}) / float64(n)
	// Ceiling with headroom over the measured value; the summary pass is
	// per-class work over a handful of small maps, not a hot loop, but it
	// must not regress into per-instruction allocation churn.
	const budget = 30.0
	if got > budget {
		t.Errorf("summary pass allocates %.2f/instruction, budget %.1f", got, budget)
	}
}

// TestSummaryCacheParity is the cached-vs-uncached interprocedural gate: a
// corpus of template twins (same shape, different package strings) must
// produce identical findings and scores through a caching engine and a
// plain one.
func TestSummaryCacheParity(t *testing.T) {
	variants := []string{"com/alpha/one", "com/beta/two", "com/gamma/three"}
	srcFor := func(pkg string) string {
		return `.class public L` + pkg + `/Installer;
.method private getStageDir()Ljava/lang/String;
    invoke-static {}, Landroid/os/Environment;->getExternalStorageDirectory()Ljava/io/File;
    move-result-object v0
    return-object v0
.end method
.method public installDownloaded()V
    invoke-direct {p0}, L` + pkg + `/Installer;->getStageDir()Ljava/lang/String;
    move-result-object v2
    invoke-virtual {p1, v2, v0}, Landroid/content/Intent;->setDataAndType(Landroid/net/Uri;Ljava/lang/String;)Landroid/content/Intent;
    return-void
.end method
`
	}
	plain := NewEngine()
	cached := NewEngineWithOptions(EngineOptions{CacheCapacity: 64})
	for round := 0; round < 2; round++ { // second round hits the caches
		for _, pkg := range variants {
			src := srcFor(pkg)
			f1, s1, err1 := plain.AnalyzeSource("x.smali", src)
			f2, s2, err2 := cached.AnalyzeSource("x.smali", src)
			if err1 != nil || err2 != nil {
				t.Fatalf("analyze errors: %v / %v", err1, err2)
			}
			if !reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(s1, s2) {
				t.Errorf("round %d %s: cached diverges from uncached\nplain  %v\ncached %v", round, pkg, f1, f2)
			}
			if len(f1) == 0 {
				t.Errorf("fixture produced no findings — parity check is vacuous")
			}
			if Score(f1) != Score(f2) {
				t.Errorf("scores diverge: %d vs %d", Score(f1), Score(f2))
			}
		}
	}
}
