// Command gia-bench runs the full experiment harness and prints every table
// and figure of the paper's evaluation.
//
// Usage:
//
//	gia-bench [-seed N] [-scale F] [-reps N] [-workers N] [-cache on|off]
//	          [-trace FILE] [-metrics] [-cpuprofile FILE] [-memprofile FILE]
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
	"runtime/pprof"
	"strings"

	"github.com/ghost-installer/gia"
)

func main() {
	seed := flag.Int64("seed", 2017, "experiment seed")
	scale := flag.Float64("scale", 1.0, "measurement corpus scale (1.0 = paper-sized)")
	reps := flag.Int("reps", 100, "repetitions for the performance tables")
	workers := flag.Int("workers", runtime.NumCPU(), "experiment worker pool size (tables are identical for any value)")
	cache := flag.String("cache", "on", "content-addressed analysis cache for the artifact-scanning tables: on|off (tables are identical either way)")
	asJSON := flag.Bool("json", false, "emit tables as a JSON array")
	reportPath := flag.String("report", "", "also write a markdown reproduction report to this path")
	tracePath := flag.String("trace", "", "export a Chrome trace (or JSONL if the path ends in .jsonl) of the worker pool")
	metrics := flag.Bool("metrics", false, "print a metrics snapshot to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path")
	flag.Parse()

	if *cache != "on" && *cache != "off" {
		log.Fatalf("-cache=%q: want on or off", *cache)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	var reg *gia.ObsRegistry
	if *metrics {
		reg = gia.NewObsRegistry()
		gia.ObserveAnalysisCache(reg)
	}
	var tr *gia.ObsTrace
	if *tracePath != "" {
		tr = gia.NewObsTrace()
	}
	if reg != nil || tr != nil || *cpuprofile != "" {
		gia.InstrumentWorkerPool(reg, tr, *cpuprofile != "")
		defer gia.InstrumentWorkerPool(nil, nil, false)
	}

	opts := gia.ExperimentOptions{Seed: *seed, Scale: *scale, PerfReps: *reps, Workers: *workers,
		NoAnalysisCache: *cache == "off"}
	tables, err := gia.AllTables(opts)
	if err != nil {
		log.Fatal(err)
	}

	if *tracePath != "" {
		if err := writeTrace(tr, *tracePath); err != nil {
			log.Fatal(err)
		}
	}
	if reg != nil {
		if err := reg.Snapshot().WriteText(os.Stderr); err != nil {
			log.Fatal(err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

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

func writeTrace(tr *gia.ObsTrace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = tr.WriteJSONL(f)
	} else {
		err = tr.WriteChrome(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	return nil
}
