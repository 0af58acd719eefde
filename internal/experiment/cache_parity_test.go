package experiment

import (
	"runtime"
	"testing"

	"github.com/ghost-installer/gia/internal/analysis"
)

// TestCacheTableParity is the cached-vs-uncached gate: every table that
// reads the scan must render byte-identically from a measurement on the
// shared cached engine and from one on an uncached reference engine, at
// one worker and at NumCPU workers.
func TestCacheTableParity(t *testing.T) {
	builders := []struct {
		name string
		f    func(m *Measurement) Table
	}{
		{"Table II", TableII},
		{"Table III", TableIII},
		{"Table IV", TableIV},
		{"Flow Study", func(m *Measurement) Table { return FlowStudy(m, 43) }},
		{"Threat Scores", ThreatScoreTable},
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		cached := Measure(nil, smallCorpus, workers)
		plain := Measure(analysis.NewEngine(), smallCorpus, workers)
		for _, b := range builders {
			on, off := b.f(cached).Render(), b.f(plain).Render()
			if on != off {
				t.Errorf("%s (workers=%d) diverges between engines:\n-- cached --\n%s\n-- uncached --\n%s",
					b.name, workers, on, off)
			}
		}
	}
}

// TestFlowStudyRowsAgree pins the study's point: the artifact pipeline's
// classifier column reproduces the ground-truth tally.
func TestFlowStudyRowsAgree(t *testing.T) {
	tab := FlowStudy(smallMeasurement(), 43)
	if len(tab.Rows) != 2 {
		t.Fatalf("flow study rows = %d, want ground truth + artifact scan", len(tab.Rows))
	}
	gt, scan := tab.Rows[0], tab.Rows[1]
	if gt[0] != "ground truth" || scan[0] != "artifact scan" {
		t.Fatalf("row labels = %q, %q", gt[0], scan[0])
	}
	for i := 1; i < len(gt); i++ {
		if gt[i] != scan[i] {
			t.Errorf("column %q: ground truth %q != artifact scan %q", tab.Header[i], gt[i], scan[i])
		}
	}
}
