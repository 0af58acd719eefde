// Command gia-bench runs the full experiment harness and prints every table
// and figure of the paper's evaluation.
//
// Usage:
//
//	gia-bench [-seed N] [-scale F] [-reps N] [-workers N] [-json]
//	          [-report FILE] [-trace FILE] [-metrics]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// Observability: -trace=FILE exports wall-clock spans of the shared worker
// pool (one track per worker, one span per job) as Chrome trace-event JSON,
// or JSONL when FILE ends in .jsonl. -metrics prints a counter snapshot
// (worker-pool throughput, analysis-cache hit rates) to stderr.
// -cpuprofile/-memprofile write pprof profiles; CPU samples carry a
// "par.worker" label so profiles split by pool worker.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"github.com/ghost-installer/gia"
	"github.com/ghost-installer/gia/cmd/internal/cli"
)

func main() {
	seed := flag.Int64("seed", 2017, "experiment seed")
	scale := flag.Float64("scale", 1.0, "measurement corpus scale (1.0 = paper-sized)")
	reps := flag.Int("reps", 100, "repetitions for the performance tables")
	workers := flag.Int("workers", runtime.NumCPU(), "experiment worker pool size (tables are identical for any value)")
	asJSON := flag.Bool("json", false, "emit tables as a JSON array")
	reportPath := flag.String("report", "", "also write a markdown reproduction report to this path")
	tracePath := flag.String("trace", "", "export a Chrome trace (or JSONL if the path ends in .jsonl) of the worker pool")
	metrics := flag.Bool("metrics", false, "print a metrics snapshot to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path")
	flag.Parse()

	stopProfiles := cli.Profile(*cpuprofile, *memprofile)
	var reg *gia.ObsRegistry
	if *metrics {
		reg = gia.NewObsRegistry()
		gia.ObserveAnalysisCache(reg)
	}
	var tr *gia.ObsTrace
	if *tracePath != "" {
		tr = gia.NewObsTrace()
	}
	gia.InstrumentWorkerPool(reg, tr, *cpuprofile != "")

	opts := gia.ExperimentOptions{Seed: *seed, Scale: *scale, PerfReps: *reps, Workers: *workers}
	tables, err := gia.AllTables(opts)
	if err != nil {
		log.Fatal(err)
	}

	if err := cli.WriteTelemetry(tr, *tracePath, reg); err != nil {
		log.Fatal(err)
	}
	stopProfiles()

	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := gia.WriteReport(f, opts, tables); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *reportPath)
	}
	if *asJSON {
		data, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	for _, tab := range tables {
		fmt.Println(tab.Render())
	}
}
