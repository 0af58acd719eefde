package experiment

import (
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/corpus"
	"github.com/ghost-installer/gia/internal/dm"
	"github.com/ghost-installer/gia/internal/installer"
)

func installerInternalStores() map[string]bool { return installer.InternalStorageStores() }

// smallCorpus keeps the measurement experiments fast in unit tests;
// smallMeasurement is its populations scanned once, on first use.
var (
	smallCorpus      = corpus.Generate(corpus.Config{Seed: 2017, Scale: 0.1})
	smallMeasurement = sync.OnceValue(func() *Measurement { return Measure(nil, smallCorpus, 0) })
)

func TestTableIStatic(t *testing.T) {
	tab := TableI()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Render(), "Hijacking Installation") {
		t.Error("render missing attack name")
	}
}

func TestMeasurementTablesRender(t *testing.T) {
	for _, tab := range []Table{
		TableII(smallMeasurement()), TableIII(smallMeasurement()), TableIV(smallMeasurement()),
		TableVI(smallCorpus), KeyStudy(smallCorpus), HareStudy(smallCorpus),
	} {
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", tab.ID)
		}
		out := tab.Render()
		if !strings.Contains(out, tab.ID) || len(out) < 40 {
			t.Errorf("%s render too small:\n%s", tab.ID, out)
		}
	}
}

func TestTableIIShapeMatchesPaper(t *testing.T) {
	tab := TableII(smallMeasurement())
	// 83.7% vulnerable among known installers, at corpus scale 0.1.
	if !strings.Contains(tab.Rows[0][1], "83.") && !strings.Contains(tab.Rows[0][1], "84.") {
		t.Errorf("vulnerable cell = %q, want ≈83.7%%", tab.Rows[0][1])
	}
}

func TestHijackStudyShape(t *testing.T) {
	outcomes, err := HijackStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	byStore := make(map[string]map[attack.Strategy]HijackOutcome)
	for _, o := range outcomes {
		if byStore[o.Store] == nil {
			byStore[o.Store] = make(map[attack.Strategy]HijackOutcome)
		}
		byStore[o.Store][o.Strategy] = o
	}
	// Every SD-card store falls to the FileObserver strategy; the
	// internal-storage stores (Play, Galaxy Apps) hold.
	internal := installerInternalStores()
	for store, m := range byStore {
		if internal[store] {
			for strat, o := range m {
				if o.Hijacked {
					t.Errorf("%s hijacked via %v — internal storage must hold", store, strat)
				}
			}
			continue
		}
		if !m[attack.StrategyFileObserver].Hijacked {
			t.Errorf("%s not hijacked by file-observer: %+v", store, m[attack.StrategyFileObserver])
		}
	}
	// The paper's wait-and-see demonstrations.
	for _, store := range []string{"com.dti.ignite", "com.amazon.venezia", "com.baidu.appsearch"} {
		if !byStore[store][attack.StrategyWaitAndSee].Hijacked {
			t.Errorf("%s not hijacked by wait-and-see: %+v", store, byStore[store][attack.StrategyWaitAndSee])
		}
	}
}

func TestDMStudyShape(t *testing.T) {
	outcomes, err := DMStudy(5)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]DMOutcome)
	for _, o := range outcomes {
		got[o.Policy.String()+"/"+o.Operation] = o
	}
	for _, key := range []string{"legacy-4.4/steal-private-file", "legacy-4.4/delete-dm-database",
		"recheck-6.0/steal-private-file", "recheck-6.0/delete-dm-database"} {
		if !got[key].Succeeded {
			t.Errorf("%s did not succeed (tries=%d)", key, got[key].Tries)
		}
	}
	for _, key := range []string{"fixed/steal-private-file", "fixed/delete-dm-database"} {
		if got[key].Succeeded {
			t.Errorf("%s succeeded against the fixed DM", key)
		}
	}
	if got["legacy-4.4/delete-dm-database"].DMHealthy {
		t.Error("DM database survived the legacy delete")
	}
	if !got["fixed/delete-dm-database"].DMHealthy {
		t.Error("DM database lost under the fixed policy")
	}
	if _, err := DMTable(5); err != nil {
		t.Fatal(err)
	}
	_ = dm.PolicyFixed
}

func TestRedirectStudyShape(t *testing.T) {
	outcomes, err := RedirectStudy(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 3 {
		t.Fatalf("outcomes = %+v", outcomes)
	}
	if !outcomes[0].UserDeceived {
		t.Errorf("stock Android resisted the redirect: %+v", outcomes[0])
	}
	if outcomes[1].UserDeceived || outcomes[1].Alerts == 0 {
		t.Errorf("detection scheme failed: %+v", outcomes[1])
	}
	if outcomes[2].OriginSeen != "com.fun.game" {
		t.Errorf("origin scheme failed: %+v", outcomes[2])
	}
}

func TestInjectionStudyShape(t *testing.T) {
	outcomes, err := InjectionStudy(13)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"amazon js-bridge":               true,
		"amazon js-bridge (sanitized)":   false,
		"xiaomi push receiver":           true,
		"xiaomi push receiver (guarded)": false,
	}
	for _, o := range outcomes {
		if o.Installed != want[o.Surface] {
			t.Errorf("%s installed=%v, want %v", o.Surface, o.Installed, want[o.Surface])
		}
	}
}

func TestTableVDynamic(t *testing.T) {
	tab, err := TableV(17)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	reproduced := 0
	for _, row := range tab.Rows {
		if row[1] == "attack reproduced" {
			reproduced++
		}
	}
	if reproduced != 4 {
		t.Errorf("reproduced = %d of 4 dynamic targets\n%s", reproduced, tab.Render())
	}
}

func TestTableVIIAllDefensesEffective(t *testing.T) {
	tab, err := TableVII(19)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[4] != "yes" {
			t.Errorf("defense %q not effective:\n%s", row[0], tab.Render())
		}
		if row[3] == "0" {
			t.Errorf("defense %q has zero LOC", row[0])
		}
	}
}

func TestDefenseLOCSane(t *testing.T) {
	loc := DefenseLOC()
	for key, n := range loc {
		if n < 10 || n > 400 {
			t.Errorf("LOC[%s] = %d, outside a plausible range", key, n)
		}
	}
	// The paper's point: all defenses are lightweight (double-digit to
	// low-hundreds LOC).
	total := loc["dapp"] + loc["fuse"] + loc["detection"] + loc["origin"]
	if total > 800 {
		t.Errorf("total defense LOC = %d — no longer lightweight", total)
	}
}

// TestDefenseLOCMatchesSources recounts Table VII's LOC column from the
// defense sources, so the pinned figures fail loudly when a defense file
// changes size.
func TestDefenseLOCMatchesSources(t *testing.T) {
	countLOC := func(path string) int {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, line := range strings.Split(string(data), "\n") {
			trimmed := strings.TrimSpace(line)
			if trimmed != "" && !strings.HasPrefix(trimmed, "//") {
				n++
			}
		}
		return n
	}
	firewall := countLOC("../intents/firewall.go")
	want := map[string]int{
		"dapp":      countLOC("../defense/dapp.go"),
		"fuse":      countLOC("../fuse/fuse.go"),
		"detection": firewall * 7 / 10,
		"origin":    firewall - firewall*7/10,
	}
	got := DefenseLOC()
	for _, key := range []string{"dapp", "fuse", "detection", "origin"} {
		if got[key] != want[key] {
			t.Errorf("DefenseLOC()[%q] = %d, the sources count %d: update the pinned figures", key, got[key], want[key])
		}
	}
}

func TestPerfTables(t *testing.T) {
	viii, err := TableVIII(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(viii.Rows) != 2 {
		t.Fatalf("table VIII rows = %d", len(viii.Rows))
	}
	ix, err := TableIX(10)
	if err != nil {
		t.Fatal(err)
	}
	x, err := TableX(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []Table{viii, ix, x} {
		if strings.TrimSpace(tab.Render()) == "" {
			t.Errorf("%s renders empty", tab.ID)
		}
	}
}

func TestDAPPSignaturePerfScalesWithSize(t *testing.T) {
	res, err := DAPPSignaturePerf([]int{1 << 10, 1 << 20}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("res = %+v", res)
	}
	if res[1].NsOp <= res[0].NsOp {
		t.Errorf("parsing a 1 MiB apk (%f ns) not slower than 1 KiB (%f ns)", res[1].NsOp, res[0].NsOp)
	}
}

func TestFigure1Trace(t *testing.T) {
	tab, err := Figure1(23)
	if err != nil {
		t.Fatal(err)
	}
	steps := make(map[string]map[string]bool)
	for _, row := range tab.Rows {
		if steps[row[0]] == nil {
			steps[row[0]] = make(map[string]bool)
		}
		steps[row[0]][row[1]] = true
	}
	for store, seen := range steps {
		for _, step := range []string{"1", "2", "3", "4"} {
			if !seen[step] {
				t.Errorf("%s trace missing step %s", store, step)
			}
		}
	}
}

func TestDAPPStudy(t *testing.T) {
	res, err := DAPPStudy(29, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.CleanInstalls != 12 {
		t.Errorf("clean installs = %d", res.CleanInstalls)
	}
	if res.FalsePositives != 0 {
		t.Errorf("false positives = %d, want 0 (the 45-day study)", res.FalsePositives)
	}
	if res.Attacks == 0 || res.Detected != res.Attacks {
		t.Errorf("detected %d of %d attacks", res.Detected, res.Attacks)
	}
}
