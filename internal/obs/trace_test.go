package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDualClockDomains(t *testing.T) {
	tr := NewTrace()
	tr.SetWallClock(TickingClock(time.Millisecond))

	var vnow time.Duration
	vt := tr.VirtualTrack("device")
	vt.SetClock(func() time.Duration { return vnow })
	vnow = 5 * time.Millisecond
	vt.Instant("boot", "done")
	sp := vt.Begin("ait", "")
	vnow = 25 * time.Millisecond
	sp.EndDetail("clean")

	wt := tr.WallTrack("worker-0")
	wsp := wt.Begin("job", "0")
	wsp.End()

	tracks := tr.Tracks()
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d, want 2", len(tracks))
	}
	// Sorted order: virtual before wall.
	if tracks[0].Domain() != DomainVirtual || tracks[1].Domain() != DomainWall {
		t.Fatalf("track order: %v then %v", tracks[0].Domain(), tracks[1].Domain())
	}
	vevs := tracks[0].Events()
	if len(vevs) != 2 || !vevs[0].Instant || vevs[0].Start != 5*time.Millisecond {
		t.Fatalf("virtual events: %+v", vevs)
	}
	if vevs[1].Dur != 20*time.Millisecond || vevs[1].Detail != "clean" {
		t.Errorf("virtual span: %+v", vevs[1])
	}
	wevs := tracks[1].Events()
	if len(wevs) != 1 || wevs[0].Start != time.Millisecond || wevs[0].Dur != time.Millisecond {
		t.Errorf("wall span on ticking clock: %+v", wevs)
	}
}

func TestWallDomainDisabled(t *testing.T) {
	tr := NewTrace()
	tr.SetWallClock(nil)
	if k := tr.WallTrack("worker-0"); k != nil {
		t.Fatal("wall track must be nil with the wall domain disabled")
	}
	// The nil track is a usable no-op.
	var k *Track
	sp := k.Begin("a", "b")
	sp.End()
	k.Instant("c", "d")
	k.InstantAt(time.Second, "e", "f")
	k.SpanAt(0, time.Second, "g", "h")
	if k.Events() != nil || k.Name() != "" {
		t.Error("nil track must stay empty")
	}
	if len(tr.Tracks()) != 0 {
		t.Error("disabled wall domain must not register tracks")
	}
}

// buildTrace records the same events regardless of insertion order
// shenanigans, for export determinism checks.
func buildTrace() *Trace {
	tr := NewTrace()
	tr.SetWallClock(TickingClock(100 * time.Microsecond))
	b := tr.VirtualTrack("run/b")
	a := tr.VirtualTrack("run/a")
	a.InstantAt(time.Millisecond, "fs", `create "x"`)
	a.SpanAt(time.Millisecond, 3*time.Millisecond, "ait", "step 2")
	b.InstantAt(2*time.Millisecond, "pm", "installed")
	w := tr.WallTrack("worker-0")
	sp := w.Begin("job", "7")
	sp.End()
	return tr
}

func TestChromeExportDeterministic(t *testing.T) {
	var one, two bytes.Buffer
	tr := buildTrace()
	if err := tr.WriteChrome(&one); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Error("two Chrome exports of one trace differ")
	}
	// The whole file must be valid JSON with the expected envelope.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(one.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, one.String())
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.Unit)
	}
	// 2 process metas + 3 thread metas + 4 events.
	if len(doc.TraceEvents) != 9 {
		t.Errorf("traceEvents = %d, want 9:\n%s", len(doc.TraceEvents), one.String())
	}
	// Virtual tracks sort before wall tracks, names ascending.
	if !strings.Contains(one.String(), `"name":"run/a"`) || !strings.Contains(one.String(), `"name":"worker-0"`) {
		t.Errorf("missing thread names:\n%s", one.String())
	}
	ia, ib := strings.Index(one.String(), `"run/a"`), strings.Index(one.String(), `"run/b"`)
	if ia > ib {
		t.Error("virtual tracks not name-sorted in export")
	}
}

func TestJSONLExport(t *testing.T) {
	tr := buildTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("jsonl lines = %d, want 4:\n%s", len(lines), buf.String())
	}
	var ev jsonlEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Domain != "virtual" || ev.Track != "run/a" || ev.Name != "fs" || ev.AtNS != int64(time.Millisecond) || !ev.Instant {
		t.Errorf("first jsonl event: %+v", ev)
	}
	var again bytes.Buffer
	if err := tr.WriteJSONL(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two JSONL exports of one trace differ")
	}
}

func TestNilTraceExports(t *testing.T) {
	var tr *Trace
	if tr.VirtualTrack("x") != nil || tr.WallTrack("y") != nil {
		t.Error("nil trace must hand out nil tracks")
	}
	tr.SetWallClock(TickingClock(time.Second))
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-trace Chrome export invalid: %v", err)
	}
	buf.Reset()
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Error("nil-trace JSONL export must be empty")
	}
}

func TestUnfinishedSpanExportsZeroWidth(t *testing.T) {
	tr := NewTrace()
	k := tr.VirtualTrack("run")
	k.SetClock(func() time.Duration { return 7 * time.Millisecond })
	_ = k.Begin("open", "never ended")
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"dur":0.000`) {
		t.Errorf("unfinished span not clamped to zero width:\n%s", buf.String())
	}
}

// TestSortedMergeOrder pins the merged-timeline order: a stable sort by
// start time. Events of one instant keep their recording order, and events
// recorded later at earlier timestamps sort in ahead of them. Twenty
// same-instant events are enough for an unstable sort to reorder them.
func TestSortedMergeOrder(t *testing.T) {
	var now time.Duration
	k := new(Track)
	k.SetClock(func() time.Duration { return now })
	now = 5 * time.Millisecond
	var want []string
	for i := 0; i < 20; i++ {
		k.Instant("fs", fmt.Sprintf("OPEN a #%d", i))
		want = append(want, fmt.Sprintf("OPEN a #%d", i))
	}
	k.InstantAt(5*time.Millisecond, "ait", "step 2 download")
	k.InstantAt(time.Millisecond, "ait", "step 1 invocation")
	want = append([]string{"step 1 invocation"}, append(want, "step 2 download")...)

	var got []string
	for _, ev := range k.Sorted().Events() {
		got = append(got, ev.Detail)
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("sorted = %q, want %q", got, want)
	}
	if first := k.Events()[0].Detail; first != "OPEN a #0" {
		t.Errorf("Sorted reordered the track itself: first event %q", first)
	}
}

func TestWriteTextLineFormat(t *testing.T) {
	k := new(Track)
	k.InstantAt(457125*time.Microsecond, "fs", "MOVED_TO /sdcard/a.apk (uid 10001)")
	k.InstantAt(0, "firewall", "redirect suspected")
	var buf bytes.Buffer
	if err := WriteText(&buf, k); err != nil {
		t.Fatal(err)
	}
	want := "[   457.125ms] fs       MOVED_TO /sdcard/a.apk (uid 10001)\n" +
		"[     0.000ms] firewall redirect suspected\n"
	if buf.String() != want {
		t.Errorf("text export:\n%q\nwant\n%q", buf.String(), want)
	}
}

// TestZeroAndNilTrack: a zero Track with no clock records at time zero,
// and a nil track is a no-op through the timeline path.
func TestZeroAndNilTrack(t *testing.T) {
	k := new(Track)
	k.Instant("x", "event")
	if evs := k.Events(); len(evs) != 1 || evs[0].Start != 0 {
		t.Errorf("clockless zero track recorded %+v, want one event at 0", evs)
	}

	var nilTrack *Track
	nilTrack.InstantAt(time.Millisecond, "ait", "dropped")
	if nilTrack.Sorted() != nil {
		t.Error("Sorted of a nil track must be nil")
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, nilTrack); err != nil || buf.Len() != 0 {
		t.Errorf("nil-track text export = %q, %v; want empty", buf.String(), err)
	}
}

func TestWriteFilePicksFormatByExtension(t *testing.T) {
	tr := NewTrace()
	tr.SetWallClock(nil)
	tr.VirtualTrack("device").InstantAt(time.Millisecond, "fs", "CREATE a")
	var chrome, jsonl bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, want := range map[string][]byte{"t.json": chrome.Bytes(), "t.trace": chrome.Bytes(), "t.jsonl": jsonl.Bytes()} {
		path := filepath.Join(dir, name)
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n%s\nwant\n%s", name, got, want)
		}
	}
	if err := tr.WriteFile(filepath.Join(dir, "missing", "t.json")); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
}
