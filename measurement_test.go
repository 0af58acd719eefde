package gia_test

import (
	"testing"

	"github.com/ghost-installer/gia"
	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/measure"
)

// TestEachPopulationScannedOnce pins that AllTables and MeasurementTables
// each scan the Play apps and the unique pre-installed apps exactly once:
// the shared engine's analysis.scan.files counter grows by the two
// populations' files and no more.
func TestEachPopulationScannedOnce(t *testing.T) {
	const seed, scale = 3, 0.02
	c := gia.GenerateCorpus(gia.CorpusConfig{Seed: seed, Scale: scale})
	_, play := measure.Scan(analysis.NewEngine(), c.PlayApps, 0)
	_, pre := measure.Scan(analysis.NewEngine(), measure.UniquePreinstalled(c.Images), 0)
	want := int64(play.Stats.Files + pre.Stats.Files)

	reg := gia.NewObsRegistry()
	gia.ObserveAnalysisCache(reg)
	files := reg.Counter("analysis.scan.files")
	for _, run := range []struct {
		name string
		f    func() error
	}{
		{"AllTables", func() error {
			_, err := gia.AllTables(gia.ExperimentOptions{Seed: seed, Scale: scale, PerfReps: 1, DAPPInstalls: 6})
			return err
		}},
		{"MeasurementTables", func() error { gia.MeasurementTables(c); return nil }},
	} {
		before := files.Value()
		if err := run.f(); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if got := files.Value() - before; got != want {
			t.Errorf("%s scanned %d files, want %d (Play %d + unique pre-installed %d, once each)",
				run.name, got, want, play.Stats.Files, pre.Stats.Files)
		}
	}
}
