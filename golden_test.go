package gia_test

import (
	"bytes"
	"flag"
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
