package gia_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/ghost-installer/gia"
)

var update = flag.Bool("update", false, "rewrite golden files instead of diffing")

// TestGoldenTOCTOUTimeline pins the FileObserver TOCTOU's merged device
// timeline for a fixed seed: every filesystem event in the staging dir,
// every package change and the AIT's steps, in virtual-time order. Any
// change to scheduler ordering, installer timing or attacker reaction shows
// up as a diff against testdata/toctou_timeline.golden; regenerate
// deliberately with `go test -run TestGoldenTOCTOUTimeline -update`.
func TestGoldenTOCTOUTimeline(t *testing.T) {
	var text bytes.Buffer
	if err := gia.WriteTimeline(&text, recordTOCTOUTimeline(t)); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "toctou_timeline.golden", text.Bytes())
}

// recordTOCTOUTimeline runs the fixed-seed FileObserver TOCTOU fixture and
// returns its merged device timeline with the AIT's steps recorded in.
func recordTOCTOUTimeline(t *testing.T) *gia.ObsTrack {
	t.Helper()
	prof := gia.AmazonProfile()
	scenario, err := gia.NewScenario(prof, 42)
	if err != nil {
		t.Fatal(err)
	}
	timeline, stop, err := gia.NewTimeline(scenario.Dev, prof.StagingDir)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	atk := gia.NewTOCTOU(scenario.Mal, gia.AttackConfigForStore(prof, gia.StrategyFileObserver), scenario.Target)
	if err := atk.Launch(); err != nil {
		t.Fatal(err)
	}
	res := scenario.RunAIT()
	atk.Stop()
	if !res.Hijacked {
		t.Fatalf("fixed-seed TOCTOU did not hijack: %v", res.Err)
	}
	res.Record(timeline)
	return timeline
}

// measurementIDs names the Section IV tables: everything AllTables renders
// from the measurement corpus.
var measurementIDs = map[string]bool{
	"Table II": true, "Table III": true, "Table IV": true, "Table VI": true,
	"Key Study": true, "Hare Study": true, "Flow Study": true, "Threat Scores": true,
}

// TestGoldenMeasurementTables pins the rendered Section IV tables at scale
// 0.1 for two seeds, as AllTables renders them, and requires
// MeasurementTables to render its six identically. The goldens were
// written once and are never regenerated: a change to how the corpus is
// scanned or tallied must reproduce them byte for byte.
func TestGoldenMeasurementTables(t *testing.T) {
	for _, seed := range []int64{2017, 7} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			tables, err := gia.AllTables(gia.ExperimentOptions{Seed: seed, Scale: 0.1, PerfReps: 1, DAPPInstalls: 6})
			if err != nil {
				t.Fatal(err)
			}
			var text bytes.Buffer
			rendered := make(map[string]string)
			for _, tab := range tables {
				if measurementIDs[tab.ID] {
					rendered[tab.ID] = tab.Render()
					fmt.Fprintln(&text, rendered[tab.ID])
				}
			}
			if len(rendered) != len(measurementIDs) {
				t.Fatalf("AllTables rendered %d of the %d measurement tables", len(rendered), len(measurementIDs))
			}
			checkGolden(t, fmt.Sprintf("measurement_%d.golden", seed), text.Bytes())

			c := gia.GenerateCorpus(gia.CorpusConfig{Seed: seed, Scale: 0.1})
			for _, tab := range gia.MeasurementTables(c) {
				if got := tab.Render(); got != rendered[tab.ID] {
					t.Errorf("MeasurementTables' %s differs from AllTables':\n%s\n--- AllTables ---\n%s", tab.ID, got, rendered[tab.ID])
				}
			}
		})
	}
}

// checkGolden diffs got against testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (rerun with -update if deliberate):\n--- got ---\n%s\n--- want ---\n%s",
			golden, firstDiffWindow(got, want), firstDiffWindow(want, got))
	}
}

// firstDiffWindow returns a readable slice of a around its first divergence
// from b, so the failure message shows the drift, not two whole timelines.
func firstDiffWindow(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := i - 200
	if start < 0 {
		start = 0
	}
	end := i + 200
	if end > len(a) {
		end = len(a)
	}
	return a[start:end]
}
