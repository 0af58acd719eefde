package experiment

import (
	"github.com/ghost-installer/gia/internal/corpus"
	"github.com/ghost-installer/gia/internal/par"
)

// Options configure a full experiment sweep.
type Options struct {
	Seed     int64
	Scale    float64 // corpus scale (1.0 = paper-sized populations)
	PerfReps int     // repetitions for Tables VIII/IX/X
	// DAPPInstalls sizes the DAPP false-positive trace (default 24; the
	// paper's full trace used 924 installs).
	DAPPInstalls int
	// Workers bounds the experiment engine's shared worker pool; <= 0
	// selects NumCPU. Independent tables generate concurrently and the
	// fleet/suggestion/chaos studies fan out on the same bound. Every
	// study builds private simulators from derived seeds, so the rendered
	// output is bit-identical for any worker count.
	Workers int
}

// AllTables regenerates every paper table and figure plus the in-text
// studies, in presentation order. The corpus is generated and its
// populations scanned once up front; the tables are otherwise independent
// of each other (they share only that read-only measurement), so they run
// concurrently on the worker pool. Results come back in presentation order
// and, on failure, the error of the earliest failing table is returned.
func AllTables(opts Options) ([]Table, error) {
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	installs := opts.DAPPInstalls
	if installs <= 0 {
		installs = 24
	}
	// Generated and scanned once up front; the table builders only read it.
	c := corpus.Generate(corpus.Config{Seed: opts.Seed, Scale: opts.Scale})
	m := Measure(nil, c, opts.Workers)
	jobs := []func() (Table, error){
		func() (Table, error) { return TableI(), nil },
		func() (Table, error) { return TableII(m), nil },
		func() (Table, error) { return TableIII(m), nil },
		func() (Table, error) { return TableIV(m), nil },
		func() (Table, error) { return TableV(opts.Seed) },
		func() (Table, error) { return TableVI(c), nil },
		func() (Table, error) { return TableVII(opts.Seed) },
		func() (Table, error) { return TableVIII(opts.PerfReps) },
		func() (Table, error) { return TableIX(opts.PerfReps) },
		func() (Table, error) { return TableX(opts.PerfReps) },
		func() (Table, error) { return Figure1(opts.Seed) },
		func() (Table, error) { return HijackTable(opts.Seed) },
		func() (Table, error) { return DMTable(opts.Seed) },
		func() (Table, error) { return RedirectTable(opts.Seed) },
		func() (Table, error) { return KeyStudy(c), nil },
		func() (Table, error) { return HareStudy(c), nil },
		func() (Table, error) { return SuggestionTable(opts.Seed, opts.Workers) },
		func() (Table, error) { return FlowStudy(m, 43), nil },
		func() (Table, error) { return ThreatScoreTable(m), nil },
		func() (Table, error) { return DAPPTable(opts.Seed, installs, 6) },
		func() (Table, error) { return FleetTable(5, opts.Seed, opts.Workers) },
		func() (Table, error) { return ChaosTable(opts.Seed, opts.Workers) },
	}
	return par.Map(opts.Workers, len(jobs), func(i int) (Table, error) { return jobs[i]() })
}
