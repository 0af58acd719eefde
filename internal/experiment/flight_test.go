package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/fault"
	"github.com/ghost-installer/gia/internal/installer"
	"github.com/ghost-installer/gia/internal/obs"
)

// flightDumpSet runs the golden TOCTOU fault workload (the DTIgnite
// truncated-download row of the exploration study — every schedule
// violates) with a ring-mode trace and a dump directory, and returns the
// dump files it produced, name → contents.
func flightDumpSet(t *testing.T, workers int, seeds []int64) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	tr := obs.NewTrace()
	tr.SetWallClock(nil) // virtual-only: the determinism precondition
	tr.SetRingDepth(256)
	payload := bytes.Repeat([]byte("x"), 200<<10)
	fn := HijackPayloadRunFunc(installer.DTIgnite(), attack.StrategyFileObserver, payload)
	ex := &chaos.Explorer{
		Workers: workers,
		Plan: chaos.NewFaultPlan(seeds[0], chaos.Rule{
			Site: fault.SiteDMChunk, Kind: fault.KindTruncate, Skip: 1,
		}),
		Trace:       tr,
		DumpDir:     dir,
		DumpDepth:   64,
		WorkerState: ArenaWorkerState(nil),
	}
	res := ex.Sweep(seeds, nil, fn)
	if res.Violations != len(seeds) {
		t.Fatalf("violations = %d, want %d (truncation fault must starve every schedule)", res.Violations, len(seeds))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestFlightDumpParityAcrossWorkers is the flight-recorder determinism
// gate (verify.sh): the violation dump set — file names and bytes — must
// be identical at 1 worker and at NumCPU workers, because dumps are keyed
// by replay token and run tracks are virtual-only.
func TestFlightDumpParityAcrossWorkers(t *testing.T) {
	seeds := make([]int64, 8)
	for i := range seeds {
		seeds[i] = 11 + int64(i)
	}
	one := flightDumpSet(t, 1, seeds)
	many := flightDumpSet(t, runtime.NumCPU(), seeds)
	names := func(m map[string][]byte) []string {
		out := make([]string, 0, len(m))
		for n := range m {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	n1, nn := names(one), names(many)
	if len(n1) != len(nn) {
		t.Fatalf("dump sets differ: 1 worker %v vs NumCPU %v", n1, nn)
	}
	// One Chrome trace + one JSONL per violating schedule.
	if len(n1) != 2*len(seeds) {
		t.Fatalf("dump count = %d files, want %d", len(n1), 2*len(seeds))
	}
	for i := range n1 {
		if n1[i] != nn[i] {
			t.Fatalf("dump name %d: %q vs %q", i, n1[i], nn[i])
		}
		if !bytes.Equal(one[n1[i]], many[n1[i]]) {
			t.Errorf("dump %q differs between 1 and NumCPU workers", n1[i])
		}
	}
}

// TestFlightDumpContents pins what a dump carries: the replay token in
// the filename and in the chaos.violation marker event, and the AIT step
// instants leading up to the failure (the installer instrumentation wired
// into the run track by aitRun).
func TestFlightDumpContents(t *testing.T) {
	dumps := flightDumpSet(t, 1, []int64{11})
	var chrome, jsonl string
	for name, b := range dumps {
		switch {
		case strings.HasSuffix(name, ".trace.json"):
			chrome = string(b)
			if !strings.HasPrefix(name, "violation-gia1-") {
				t.Errorf("dump name %q not keyed by sanitized token", name)
			}
		case strings.HasSuffix(name, ".jsonl"):
			jsonl = string(b)
		}
	}
	if chrome == "" || jsonl == "" {
		t.Fatalf("missing dump form: %v", dumps)
	}
	for _, form := range []string{chrome, jsonl} {
		if !strings.Contains(form, "chaos.violation") {
			t.Error("dump lacks the chaos.violation marker")
		}
		if !strings.Contains(form, "gia1:") {
			t.Error("dump lacks the replay token")
		}
		if !strings.Contains(form, "invocation") {
			t.Error("dump lacks the AIT step instants")
		}
	}
	lines := strings.Split(strings.TrimRight(jsonl, "\n"), "\n")
	if len(lines) == 0 || len(lines) > 65 {
		t.Errorf("jsonl dump holds %d events, want 1..65 (DumpDepth 64 + marker ride-along)", len(lines))
	}
}

// BenchmarkFlightRecorder measures recorder overhead on the golden TOCTOU
// fault workload (the EXPERIMENTS.md table): schedules/s with the
// recorder off, recording into rings, and recording + dumping every
// violation (this workload violates on every schedule, so "dumping" is
// the worst case — two files per schedule).
func BenchmarkFlightRecorder(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 200<<10)
	fn := HijackPayloadRunFunc(installer.DTIgnite(), attack.StrategyFileObserver, payload)
	run := func(b *testing.B, tr *obs.Trace, dumpDir string) {
		seeds := make([]int64, b.N)
		for i := range seeds {
			seeds[i] = 11 + int64(i)
		}
		ex := &chaos.Explorer{
			Workers: 1,
			Plan: chaos.NewFaultPlan(seeds[0], chaos.Rule{
				Site: fault.SiteDMChunk, Kind: fault.KindTruncate, Skip: 1,
			}),
			Trace:       tr,
			DumpDir:     dumpDir,
			WorkerState: ArenaWorkerState(nil),
		}
		b.ResetTimer()
		res := ex.Sweep(seeds, nil, fn)
		b.StopTimer()
		if res.Violations != b.N {
			b.Fatalf("violations = %d, want %d", res.Violations, b.N)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "schedules/s")
	}
	b.Run("off", func(b *testing.B) { run(b, nil, "") })
	b.Run("on", func(b *testing.B) {
		tr := obs.NewTrace()
		tr.SetWallClock(nil)
		tr.SetRingDepth(256)
		run(b, tr, "")
	})
	b.Run("dumping", func(b *testing.B) {
		tr := obs.NewTrace()
		tr.SetWallClock(nil)
		tr.SetRingDepth(256)
		run(b, tr, b.TempDir())
	})
}
