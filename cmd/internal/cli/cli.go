// Package cli holds the output plumbing the gia commands share: the
// -cpuprofile/-memprofile pprof profiles and the -trace/-metrics
// telemetry flush. Each command keeps its own flags; these functions only
// write what the flags asked for.
package cli

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/ghost-installer/gia/internal/obs"
)

// Profile starts a CPU profile written to cpuPath when it is set and
// returns the function that ends profiling: it stops the CPU profile and
// then, when memPath is set, writes a heap profile taken after a GC. Any
// error is fatal.
func Profile(cpuPath, memPath string) (stop func()) {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				log.Fatal(err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
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
}

// WriteTelemetry flushes a command's -trace and -metrics outputs: tr to
// tracePath (Chrome trace-event JSON, or JSONL when the path ends in
// .jsonl) with a note on stderr, then reg's counter snapshot as text on
// stderr. A nil tr, an empty tracePath or a nil reg skips that output.
func WriteTelemetry(tr *obs.Trace, tracePath string, reg *obs.Registry) error {
	if tr != nil && tracePath != "" {
		if err := tr.WriteFile(tracePath); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", tracePath)
	}
	if reg == nil {
		return nil
	}
	return reg.Snapshot().WriteText(os.Stderr)
}
