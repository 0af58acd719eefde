package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Exporters. All renderers are deterministic: tracks are emitted in
// sorted (domain, name) order, events in per-track recording order, and
// floating-point timestamps use a fixed 'f'/3 format — so a run traced
// twice (or at a different worker count, for virtual-only traces) produces
// byte-identical files.

// chromePID maps a clock domain to a Chrome trace "process": the two
// domains must never share a timeline, so each gets its own pid.
func chromePID(d Domain) int {
	if d == DomainWall {
		return 2
	}
	return 1
}

// usec renders a duration as Chrome's microsecond timestamps with fixed
// precision (strconv, not %g: %g switches to scientific notation on large
// runs, which some viewers reject and which is not byte-stable across
// magnitudes).
func usec(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Microsecond), 'f', 3, 64)
}

// jstr renders s as a JSON string literal.
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshalling a string cannot fail; keep the exporter total anyway.
		return `""`
	}
	return string(b)
}

// WriteChrome renders the trace in Chrome trace-event JSON (the format
// chrome://tracing and Perfetto load): virtual-time tracks as threads of
// process 1 ("virtual time"), wall-clock tracks as threads of process 2
// ("wall clock"), spans as complete ("X") events and instants as "i"
// events. A nil trace writes an empty, still-loadable file.
func (t *Trace) WriteChrome(w io.Writer) error {
	return WriteChromeTracks(w, t.Tracks())
}

// WriteChromeTracks renders an explicit track list — already in the
// caller's intended order, normally Trace.Tracks' sorted (domain, name)
// order — in Chrome trace-event JSON. Flight-recorder dumps use it to
// export a subset of tracks (the rings involved in a violation) without
// copying them into a throwaway Trace.
func WriteChromeTracks(w io.Writer, tracks []*Track) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := bw.WriteString(line)
		return err
	}

	domainSeen := map[Domain]bool{}
	for _, k := range tracks {
		if !domainSeen[k.domain] {
			domainSeen[k.domain] = true
			name := "virtual time"
			if k.domain == DomainWall {
				name = "wall clock"
			}
			meta := fmt.Sprintf(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
				chromePID(k.domain), jstr(name))
			if err := emit(meta); err != nil {
				return err
			}
		}
	}
	for i, k := range tracks {
		meta := fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
			chromePID(k.domain), i+1, jstr(k.name))
		if err := emit(meta); err != nil {
			return err
		}
	}
	for i, k := range tracks {
		pid, tid := chromePID(k.domain), i+1
		for _, ev := range k.Events() {
			var line string
			switch {
			case ev.Instant:
				line = fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d,"args":{"detail":%s}}`,
					jstr(ev.Name), jstr(k.domain.String()), usec(ev.Start), pid, tid, jstr(ev.Detail))
			default:
				dur := ev.Dur
				if dur < 0 {
					dur = 0 // never ended; render as a zero-width span
				}
				line = fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{"detail":%s}}`,
					jstr(ev.Name), jstr(k.domain.String()), usec(ev.Start), usec(dur), pid, tid, jstr(ev.Detail))
			}
			if err := emit(line); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteText renders k's events in recording order, one line each: the
// start time in milliseconds, the event name padded to eight columns and
// the detail — the merged device timeline's text form (pass Track.Sorted
// for start-time order). A nil track writes nothing.
func WriteText(w io.Writer, k *Track) error {
	bw := bufio.NewWriter(w)
	for _, ev := range k.Events() {
		if _, err := fmt.Fprintf(bw, "[%10.3fms] %-8s %s\n",
			float64(ev.Start)/float64(time.Millisecond), ev.Name, ev.Detail); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile exports the trace to path: JSONL when the name ends in
// ".jsonl", Chrome trace-event JSON otherwise.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		err = t.WriteJSONL(f)
	} else {
		err = t.WriteChrome(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// jsonlEvent fixes the JSONL field order.
type jsonlEvent struct {
	Domain  string `json:"domain"`
	Track   string `json:"track"`
	Name    string `json:"name"`
	AtNS    int64  `json:"at_ns"`
	DurNS   int64  `json:"dur_ns,omitempty"`
	Detail  string `json:"detail,omitempty"`
	Instant bool   `json:"instant,omitempty"`
}

// EventJSONL renders one event in the JSONL export form (no trailing
// newline) — the unit the streaming trace endpoint emits per line.
func EventJSONL(d Domain, track string, ev Event) ([]byte, error) {
	dur := ev.Dur
	if dur < 0 {
		dur = 0
	}
	return json.Marshal(jsonlEvent{
		Domain:  d.String(),
		Track:   track,
		Name:    ev.Name,
		AtNS:    int64(ev.Start),
		DurNS:   int64(dur),
		Detail:  ev.Detail,
		Instant: ev.Instant,
	})
}

// WriteJSONL renders the trace as one JSON object per line — the
// machine-diffable stream form of WriteChrome, with the same deterministic
// ordering. A nil trace writes nothing.
func (t *Trace) WriteJSONL(w io.Writer) error {
	return WriteJSONLTracks(w, t.Tracks())
}

// WriteJSONLTracks renders an explicit track list as JSONL, in the order
// given (see WriteChromeTracks).
func WriteJSONLTracks(w io.Writer, tracks []*Track) error {
	bw := bufio.NewWriter(w)
	for _, k := range tracks {
		for _, ev := range k.Events() {
			line, err := EventJSONL(k.domain, k.name, ev)
			if err != nil {
				return err
			}
			if _, err := bw.Write(line); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
