package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// usage is a process's resource use: CPU and peak RSS from getrusage,
// allocation and GC CPU totals and the memory held now from
// runtime/metrics. The fleet daemon serves its own as JSON, so the fields
// are exported.
type usage struct {
	CPUNs      int64   `json:"cpu_ns"`
	MaxRSSKB   int64   `json:"maxrss_kb"`
	MemBytes   uint64  `json:"mem_bytes"`
	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCPUSec   float64 `json:"gc_cpu_s"`
	AllCPUSec  float64 `json:"all_cpu_s"`
}

var usageSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(usageSamples))
	for i, name := range usageSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return usage{
		CPUNs:      ru.Utime.Nano() + ru.Stime.Nano(),
		MaxRSSKB:   ru.Maxrss,
		MemBytes:   s[4].Value.Uint64() - s[5].Value.Uint64(),
		Allocs:     s[0].Value.Uint64(),
		AllocBytes: s[1].Value.Uint64(),
		GCCPUSec:   s[2].Value.Float64(),
		AllCPUSec:  s[3].Value.Float64(),
	}
}

// since is the use between an earlier reading and u; the memory figures
// stay u's.
func (u usage) since(before usage) usage {
	return usage{
		CPUNs:      u.CPUNs - before.CPUNs,
		MaxRSSKB:   u.MaxRSSKB,
		MemBytes:   u.MemBytes,
		Allocs:     u.Allocs - before.Allocs,
		AllocBytes: u.AllocBytes - before.AllocBytes,
		GCCPUSec:   u.GCCPUSec - before.GCCPUSec,
		AllCPUSec:  u.AllCPUSec - before.AllCPUSec,
	}
}

func (u *usage) add(d usage) {
	u.CPUNs += d.CPUNs
	u.Allocs += d.Allocs
	u.AllocBytes += d.AllocBytes
	u.GCCPUSec += d.GCCPUSec
	u.AllCPUSec += d.AllCPUSec
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sortedCopy returns xs sorted ascending, leaving xs as it was.
func sortedCopy(xs []int64) []int64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted samples (0 if none).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// partQuantile is the median, over a run's tailParts consecutive parts (in
// completion order), of each part's q-quantile: one burst of slow samples
// moves one part, not the figure, while stalls that recur through the
// run, such as GC, still count. A part holds at least minPart samples; a
// run too short for two parts gets the quantile of all its samples.
const (
	tailParts = 10
	minPart   = 1000
)

func partQuantile(samples []int64, q float64) int64 {
	k := min(tailParts, len(samples)/minPart)
	if k < 2 {
		return quantile(sortedCopy(samples), q)
	}
	size := len(samples) / k
	p := make([]float64, k)
	for i := range p {
		part := samples[i*size : (i+1)*size]
		if i == k-1 {
			part = samples[i*size:]
		}
		p[i] = float64(quantile(sortedCopy(part), q))
	}
	return int64(median(p))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// memSampleEvery paces the memory samples behind the mem_mb metric.
const memSampleEvery = 50 * time.Millisecond

// sampleMem reads memory in bytes every memSampleEvery, skipping failed
// reads, until the returned function is called; that function stops the
// sampler and returns the median sample in MB.
func sampleMem(read func() (uint64, error)) (stop func() float64) {
	quit := make(chan struct{})
	done := make(chan float64)
	go func() {
		var mb []float64
		tick := time.NewTicker(memSampleEvery)
		defer tick.Stop()
		for {
			if b, err := read(); err == nil {
				mb = append(mb, float64(b)/(1<<20))
			}
			select {
			case <-quit:
				done <- median(mb)
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-done
	}
}

// ownMem is this process's memory for sampleMem.
func ownMem() (uint64, error) { return readUsage().MemBytes, nil }

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// epoch is the zero of every span timestamp. Spans from all lanes share
// it, and the daemon's handler spans are converted onto it from wall time.
var epoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// spanNames lists every span name the benchmark records; spans store the
// index, so recording one copies no string.
var spanNames []string

func spanName(name string) int {
	spanNames = append(spanNames, name)
	return len(spanNames) - 1
}

// span is one recorded interval. Ids are unique across lanes; a root span
// has parent 0, and spans of one request or schedule share req.
type span struct {
	name            int32
	id, parent, req uint64
	start, end      int64
}

// laneCap bounds the spans one lane keeps for export.
const laneCap = 1 << 16

// lane records the spans of one goroutine; each worker or connection owns
// one, so recording takes no lock. Spans go into a slice allocated up
// front; once it is full, later spans still count in the per-name totals
// but are not kept for export. A nil lane records nothing, which is how
// the untraced runs share code with the traced ones.
type lane struct {
	id      uint64
	seq     uint64
	spans   []span
	dropped int
	total   []int64 // ns per span name
	count   []int64
}

func newLane(id int) *lane {
	return &lane{
		id:    uint64(id),
		spans: make([]span, 0, laneCap),
		total: make([]int64, len(spanNames)),
		count: make([]int64, len(spanNames)),
	}
}

// next returns a fresh id, used for spans and request ids alike.
func (l *lane) next() uint64 {
	if l == nil {
		return 0
	}
	l.seq++
	return l.id<<40 | l.seq
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	l               *lane
	name            int
	id, parent, req uint64
	start           int64
}

func (l *lane) begin(name int, parent, req uint64) openSpan {
	if l == nil {
		return openSpan{}
	}
	return openSpan{l: l, name: name, id: l.next(), parent: parent, req: req, start: sinceEpoch()}
}

// end records the span and returns its duration in ns.
func (s openSpan) end() int64 {
	if s.l == nil {
		return 0
	}
	e := sinceEpoch()
	s.l.record(span{name: int32(s.name), id: s.id, parent: s.parent, req: s.req, start: s.start, end: e})
	return e - s.start
}

func (l *lane) record(s span) {
	l.total[s.name] += s.end - s.start
	l.count[s.name]++
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
}

// spanTotals sums the per-name totals of lanes.
type spanTotals struct{ total, count []int64 }

func sumLanes(lanes []*lane) spanTotals {
	t := spanTotals{total: make([]int64, len(spanNames)), count: make([]int64, len(spanNames))}
	for _, l := range lanes {
		for i := range l.total {
			t.total[i] += l.total[i]
			t.count[i] += l.count[i]
		}
	}
	return t
}

// perUnit is the total time of span name, in µs per unit of work.
func (t spanTotals) perUnit(name int, units int) float64 {
	return ratio(us(t.total[name]), float64(units))
}

// mean is the mean duration of span name in µs.
func (t spanTotals) mean(name int) float64 {
	return ratio(us(t.total[name]), float64(t.count[name]))
}

// writeSpans exports the kept spans of every lane as JSONL, one span per
// line, times in ns since the run's epoch.
func writeSpans(path string, lanes []*lane) (kept, dropped int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	var b []byte
	for _, l := range lanes {
		dropped += l.dropped
		for _, s := range l.spans {
			b = append(b[:0], `{"name":`...)
			b = strconv.AppendQuote(b, spanNames[s.name])
			b = append(b, `,"id":`...)
			b = strconv.AppendUint(b, s.id, 10)
			b = append(b, `,"parent":`...)
			b = strconv.AppendUint(b, s.parent, 10)
			b = append(b, `,"req":`...)
			b = strconv.AppendUint(b, s.req, 10)
			b = append(b, `,"start_ns":`...)
			b = strconv.AppendInt(b, s.start, 10)
			b = append(b, `,"end_ns":`...)
			b = strconv.AppendInt(b, s.end, 10)
			b = append(b, "}\n"...)
			if _, err := w.Write(b); err != nil {
				f.Close()
				return 0, 0, fmt.Errorf("write spans: %w", err)
			}
			kept++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, 0, fmt.Errorf("write spans: %w", err)
	}
	return kept, dropped, nil
}
