package gia_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/ghost-installer/gia"
)

// renderTOCTOUTrace runs the same fixed-seed FileObserver TOCTOU fixture as
// TestGoldenTOCTOUTimeline and exports the merged device timeline as a
// Chrome trace: one virtual-time track carrying every fs, package, firewall
// and AIT event as an instant.
func renderTOCTOUTrace(t *testing.T) ([]byte, *gia.ObsTrack) {
	t.Helper()
	timeline := recordTOCTOUTimeline(t)

	tr := gia.NewObsTrace()
	// Virtual time only: the wall domain would embed real durations and
	// break byte-for-byte reproducibility.
	tr.SetWallClock(nil)
	device := tr.VirtualTrack("device")
	for _, ev := range timeline.Sorted().Events() {
		device.InstantAt(ev.Start, ev.Name, ev.Detail)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), device
}

// TestGoldenTOCTOUTrace pins the Chrome-trace export of the FileObserver
// TOCTOU timeline: the same events testdata/toctou_timeline.golden pins, as
// trace instants on a virtual-time "device" track. The export must be
// byte-identical across runs; regenerate deliberately with
// `go test -run TestGoldenTOCTOUTrace -update`.
func TestGoldenTOCTOUTrace(t *testing.T) {
	got, device := renderTOCTOUTrace(t)
	again, _ := renderTOCTOUTrace(t)
	if !bytes.Equal(got, again) {
		t.Fatalf("trace export is not deterministic across runs:\n--- first ---\n%s\n--- second ---\n%s",
			firstDiffWindow(got, again), firstDiffWindow(again, got))
	}

	// Every trace event must agree, field for field, with the golden
	// timeline: rendering the device track in the timeline's own text
	// format must reproduce toctou_timeline.golden exactly.
	for _, ev := range device.Events() {
		if !ev.Instant {
			t.Fatalf("timeline export produced a non-instant event: %+v", ev)
		}
	}
	var lines bytes.Buffer
	if err := gia.WriteTimeline(&lines, device); err != nil {
		t.Fatal(err)
	}
	timelineGolden, err := os.ReadFile(filepath.Join("testdata", "toctou_timeline.golden"))
	if err != nil {
		t.Fatalf("read timeline golden: %v", err)
	}
	if !bytes.Equal(lines.Bytes(), timelineGolden) {
		t.Errorf("trace events drifted from the golden timeline:\n--- trace ---\n%s\n--- timeline ---\n%s",
			firstDiffWindow(lines.Bytes(), timelineGolden), firstDiffWindow(timelineGolden, lines.Bytes()))
	}

	checkGolden(t, "toctou_trace.golden", got)
}
