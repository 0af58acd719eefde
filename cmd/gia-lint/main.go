// Command gia-lint runs the GIA static-analysis engine — smali IR,
// per-method control-flow graphs, reaching definitions and the pluggable
// rule set — over smali source files or a generated corpus, printing
// findings with class/method/line provenance plus a per-rule summary and
// scan-throughput statistics.
//
// Usage:
//
//	gia-lint file.smali [file2.smali ...]        # lint smali sources
//	gia-lint [-seed N] [-scale F] [-pop play|preinstalled|store|all]
//	         [-workers N] [-findings N]
//	         [-trace FILE] [-metrics] [-json]    # scan a synthetic corpus
//
// -json switches the report to machine-readable output on stdout: one
// object with per-APK packages, findings and 0-100 threat scores plus the
// aggregate score distribution. In file mode it emits the same shape with
// file paths in place of package names.
//
// The scan runs on the shared worker pool with the content-addressed
// analysis cache; findings are identical at any -workers value.
//
// Observability: -trace=FILE exports wall-clock spans of the corpus scan
// (one "par/worker-K" track per pool worker, one span per APK) as Chrome
// trace-event JSON, or JSONL when FILE ends in .jsonl. -metrics prints the
// engine's counter snapshot (files, instructions, findings, cache
// outcomes) to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"github.com/ghost-installer/gia/cmd/internal/cli"
	"github.com/ghost-installer/gia/internal/analysis"
	"github.com/ghost-installer/gia/internal/apk"
	"github.com/ghost-installer/gia/internal/corpus"
	"github.com/ghost-installer/gia/internal/measure"
	"github.com/ghost-installer/gia/internal/obs"
	"github.com/ghost-installer/gia/internal/par"
)

func main() {
	seed := flag.Int64("seed", 2017, "corpus seed")
	scale := flag.Float64("scale", 0.1, "population scale (1.0 = paper-sized)")
	pop := flag.String("pop", "play", "population: play|preinstalled|store|all")
	workers := flag.Int("workers", runtime.NumCPU(), "scanner worker pool size")
	findings := flag.Int("findings", 10, "example findings to print in corpus mode")
	tracePath := flag.String("trace", "", "export a Chrome trace (or JSONL if the path ends in .jsonl) of the corpus scan")
	metrics := flag.Bool("metrics", false, "print the engine's metrics snapshot to stderr")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (per-APK findings and threat scores) on stdout")
	flag.Parse()

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	var tr *obs.Trace
	if *tracePath != "" {
		tr = obs.NewTrace()
		par.SetInstrumentation(&par.Instrumentation{Trace: tr})
	}
	eng := analysis.NewEngineWithOptions(analysis.EngineOptions{CacheCapacity: 4096, Registry: reg})
	if flag.NArg() > 0 {
		os.Exit(lintFiles(eng, flag.Args(), *jsonOut))
	}
	if err := scanCorpus(eng, *seed, *scale, *pop, par.Workers(*workers), *findings, *jsonOut); err != nil {
		log.Fatal(err)
	}
	if err := cli.WriteTelemetry(tr, *tracePath, reg); err != nil {
		log.Fatal(err)
	}
}

// jsonFinding is one finding in -json output.
type jsonFinding struct {
	Rule     string `json:"rule"`
	Severity string `json:"severity"`
	File     string `json:"file"`
	Class    string `json:"class"`
	Method   string `json:"method"`
	Line     int    `json:"line"`
	Message  string `json:"message"`
}

// jsonReport is one scanned unit (an APK in corpus mode, a source file in
// file mode) with its findings and 0-100 threat score.
type jsonReport struct {
	Package  string        `json:"package"`
	Score    int           `json:"score"`
	Findings []jsonFinding `json:"findings"`
}

// jsonOutput is the -json document: per-unit reports plus the aggregate
// score distribution over the scan.
type jsonOutput struct {
	Scanned   int            `json:"scanned"`
	MeanScore float64        `json:"mean_score"`
	MaxScore  int            `json:"max_score"`
	ScoreHist map[string]int `json:"score_hist"`
	Reports   []jsonReport   `json:"reports"`
}

func toJSONFindings(found []analysis.Finding) []jsonFinding {
	out := make([]jsonFinding, 0, len(found))
	for _, f := range found {
		out = append(out, jsonFinding{
			Rule:     f.RuleID,
			Severity: f.Severity.String(),
			File:     f.File,
			Class:    f.Class,
			Method:   f.Method,
			Line:     f.Line,
			Message:  f.Message,
		})
	}
	return out
}

func writeJSON(out jsonOutput) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// lintFiles lints smali sources from disk and returns the exit code:
// 0 clean, 1 findings, 2 parse errors.
func lintFiles(eng *analysis.Engine, paths []string, jsonOut bool) int {
	code := 0
	out := jsonOutput{ScoreHist: map[string]int{}}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 2
			continue
		}
		found, _, err := eng.AnalyzeSource(path, string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 2
			continue
		}
		score := analysis.Score(found)
		if jsonOut {
			out.Scanned++
			out.MeanScore += float64(score)
			if score > out.MaxScore {
				out.MaxScore = score
			}
			out.ScoreHist[analysis.ScoreBucketLabel(analysis.ScoreBucket(score))]++
			out.Reports = append(out.Reports, jsonReport{
				Package: path, Score: score, Findings: toJSONFindings(found),
			})
		} else {
			for _, f := range found {
				fmt.Println(f)
			}
			fmt.Printf("%s: threat score %d/%d\n", path, score, analysis.MaxScore)
		}
		if len(found) > 0 && code == 0 {
			code = 1
		}
	}
	if jsonOut {
		if out.Scanned > 0 {
			out.MeanScore /= float64(out.Scanned)
		}
		if err := writeJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 2
		}
	}
	return code
}

func scanCorpus(eng *analysis.Engine, seed int64, scale float64, pop string, workers, maxFindings int, jsonOut bool) error {
	c := corpus.Generate(corpus.Config{Seed: seed, Scale: scale})
	apps, err := population(c, pop)
	if err != nil {
		return err
	}
	if !jsonOut {
		fmt.Printf("scanning %d %s apps with %d workers, %d rules\n\n",
			len(apps), pop, workers, len(eng.Rules()))
	}

	start := time.Now()
	reports, stats := eng.ScanCorpus(len(apps), workers, func(i int) *apk.APK {
		return corpus.BuildAPKFor(apps[i])
	})
	elapsed := time.Since(start)

	if jsonOut {
		out := jsonOutput{
			Scanned:   stats.APKs,
			MeanScore: stats.MeanScore(),
			MaxScore:  stats.ScoreMax,
			ScoreHist: map[string]int{},
		}
		for b := 0; b < analysis.ScoreBuckets; b++ {
			out.ScoreHist[analysis.ScoreBucketLabel(b)] = stats.ScoreHist[b]
		}
		for i, rep := range reports {
			out.Reports = append(out.Reports, jsonReport{
				Package:  apps[i].Package,
				Score:    rep.Score,
				Findings: toJSONFindings(rep.Findings),
			})
		}
		return writeJSON(out)
	}

	printed := 0
	for i, rep := range reports {
		for _, f := range rep.Findings {
			if printed >= maxFindings {
				break
			}
			fmt.Printf("  %s: %s\n", apps[i].Package, f)
			printed++
		}
	}
	if stats.Findings > printed {
		fmt.Printf("  … and %d more findings (raise -findings to see them)\n", stats.Findings-printed)
	}

	fmt.Printf("\n%-30s %-8s %10s   %s\n", "RULE", "SEV", "HITS", "DESCRIPTION")
	for _, r := range eng.Rules() {
		fmt.Printf("%-30s %-8s %10d   %s\n", r.ID(), r.Severity(), stats.PerRule[r.ID()], r.Description())
	}
	fmt.Printf("\nscanned %d APKs (%d classes, %d methods, %d instructions, %d parse errors) in %v\n",
		stats.APKs, stats.Stats.Classes, stats.Stats.Methods, stats.Stats.Instructions,
		stats.Stats.ParseErrors, elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f APKs/s, %.0f instructions/s (%d workers)\n",
		float64(stats.APKs)/elapsed.Seconds(), float64(stats.Stats.Instructions)/elapsed.Seconds(), workers)
	fmt.Printf("threat scores: mean %.1f, max %d; distribution", stats.MeanScore(), stats.ScoreMax)
	for b := 0; b < analysis.ScoreBuckets; b++ {
		fmt.Printf(" %s:%d", analysis.ScoreBucketLabel(b), stats.ScoreHist[b])
	}
	fmt.Println()
	if cs, ok := eng.CacheStats(); ok {
		fmt.Printf("cache: %d hits, %d misses, %d deduped, %d evictions, %d entries\n",
			cs.Hits, cs.Misses, cs.Deduped, cs.Evictions, cs.Entries)
	}
	return nil
}

func population(c *corpus.Corpus, pop string) ([]corpus.AppMeta, error) {
	switch pop {
	case "play":
		return c.PlayApps, nil
	case "preinstalled":
		return measure.UniquePreinstalled(c.Images), nil
	case "store":
		return c.StoreApps, nil
	case "all":
		var all []corpus.AppMeta
		all = append(all, c.PlayApps...)
		all = append(all, measure.UniquePreinstalled(c.Images)...)
		all = append(all, c.StoreApps...)
		return all, nil
	default:
		return nil, fmt.Errorf("unknown population %q (want play|preinstalled|store|all)", pop)
	}
}
