package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// The workloads re-execute the test binary in their roles.
	if ok, err := asRole(); ok {
		if err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of ../BENCHMARK.json the test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyConfig runs a workload at test size: scale 0.01, 2,000-schedule
// sweep chunks, a 1 s fleet window over 20 devices, one set-up.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	window := 300 * time.Millisecond
	if workload == "fleet-http" {
		window = time.Second
	}
	return config{
		workload: workload, seed: 7, window: window, trace: trace,
		spans: filepath.Join(t.TempDir(), "spans.jsonl"),
		scale: 0.01, setupReps: 1, sweepChunk: 1000, devices: 20,
	}
}

// TestEveryWorkloadEmitsDeclaredMetrics runs each workload untraced and
// traced at test size and checks it passes its output checks and prints
// exactly the metrics BENCHMARK.json declares, with their units.
func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the command", i, w.Name, workloads[i].name)
		}
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyConfig(t, w.name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.failed > 0 {
				t.Errorf("%s trace=%v: %d failures: %v", w.name, trace, res.failed, res.failures)
			}
			want := declared[trace]
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.metrics), len(want))
			}
			for _, m := range res.metrics {
				if unit, ok := want[m.name]; !ok || unit != m.unit {
					t.Errorf("%s trace=%v: metric %s %s, declared unit %q", w.name, trace, m.name, m.unit, unit)
				}
			}
		}
	}
}

// TestCorruptedPinFailsCheck checks that the pinned-output check catches a
// count that is off by one.
func TestCorruptedPinFailsCheck(t *testing.T) {
	var lat []int64
	apps := scanApps(7, 0.01)
	got := scanPass(newScanEngine(false, nil), apps, &lat)
	var want expected
	want.Scan.APKs, want.Scan.Findings = got.apks, got.findings
	want.Scan.MeanScore, want.Scan.PerRule = got.meanScore(), got.perRule

	var ok result
	checkScanPins(&ok, got, &want)
	if ok.failed != 0 {
		t.Fatalf("pins taken from the scan itself fail: %v", ok.failures)
	}
	want.Scan.Findings++
	var bad result
	checkScanPins(&bad, got, &want)
	if bad.failed != 1 {
		t.Fatalf("a corrupted findings count gives %d failures, want 1", bad.failed)
	}
}

// TestPinnedOrdersTotal ties the per-seed pins to the published total:
// seeds 2017–2056 explore 3,008 schedules.
func TestPinnedOrdersTotal(t *testing.T) {
	sum := 0
	for _, n := range pinned.OrdersExplored {
		sum += n
	}
	if pinned.Seed != 2017 || len(pinned.OrdersExplored) != 40 || sum != 3008 {
		t.Fatalf("pinned orders: seed %d, %d seeds, %d schedules; want 2017, 40, 3008",
			pinned.Seed, len(pinned.OrdersExplored), sum)
	}
}
