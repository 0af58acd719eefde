package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/obs"
)

func TestDeviceRingRecordsTransactions(t *testing.T) {
	reg := obs.NewRegistry()
	f := newTestFleet(t, Config{Shards: 1, Seed: 3, Registry: reg, Clock: obs.TickingClock(time.Millisecond)})
	info, err := f.CreateDevice(CreateDeviceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Install(info.ID, InstallRequest{}); err != nil {
		t.Fatal(err)
	}
	k, err := f.DeviceTrack(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	evs := k.Events()
	if len(evs) == 0 {
		t.Fatal("device ring recorded nothing")
	}
	var sawStep, sawSpan bool
	for _, ev := range evs {
		if ev.Name == "invocation" {
			sawStep = true
		}
		if strings.HasPrefix(ev.Name, "ait/") {
			sawSpan = true
		}
	}
	if !sawStep || !sawSpan {
		t.Errorf("ring lacks AIT steps (%v) or outcome span (%v): %+v", sawStep, sawSpan, evs)
	}
	// The ring is bounded at the configured default.
	if f.cfg.FlightDepth != defaultFlightDepth {
		t.Errorf("FlightDepth defaulted to %d, want %d", f.cfg.FlightDepth, defaultFlightDepth)
	}
	if _, err := f.DeviceTrack("nope"); err != ErrNotFound {
		t.Errorf("unknown device track err = %v, want ErrNotFound", err)
	}
}

func TestFlightRecorderDisabled(t *testing.T) {
	f := newTestFleet(t, Config{Shards: 1, FlightDepth: -1})
	info, err := f.CreateDevice(CreateDeviceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if f.flight != nil {
		t.Error("flight recorder non-nil with recorder disabled")
	}
	if _, err := f.DeviceTrack(info.ID); err == nil {
		t.Error("DeviceTrack must report the recorder disabled")
	}
}

func TestDeviceTraceEndpointJSONL(t *testing.T) {
	reg := obs.NewRegistry()
	f := newTestFleet(t, Config{Shards: 1, Registry: reg})
	srv := httptest.NewServer(NewHandler(f, reg))
	t.Cleanup(srv.Close)

	info, err := f.CreateDevice(CreateDeviceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Install(info.ID, InstallRequest{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/devices/" + info.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("trace endpoint returned nothing")
	}
	var ev struct {
		Domain string `json:"domain"`
		Track  string `json:"track"`
		Name   string `json:"name"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("bad jsonl line %q: %v", lines[0], err)
	}
	if ev.Domain != "virtual" || ev.Track != "device/"+info.ID {
		t.Errorf("first event %+v", ev)
	}
	if resp, err := http.Get(srv.URL + "/devices/ghost/trace"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown device trace status = %d", resp.StatusCode)
	}
}

func TestDeviceTraceFollowStreams(t *testing.T) {
	reg := obs.NewRegistry()
	f := newTestFleet(t, Config{Shards: 1, Registry: reg})
	srv := httptest.NewServer(NewHandler(f, reg))
	t.Cleanup(srv.Close)

	info, err := f.CreateDevice(CreateDeviceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Install(info.ID, InstallRequest{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/devices/"+info.ID+"/trace?follow=1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The already-recorded install appears immediately even in follow
	// mode; one line is proof of life, then we hang up.
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil || !strings.Contains(line, "device/"+info.ID) {
		t.Fatalf("follow stream first line %q err %v", line, err)
	}
	cancel()
}

func TestMetricsPromEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	f := newTestFleet(t, Config{Shards: 1, Registry: reg})
	srv := httptest.NewServer(NewHandler(f, reg))
	t.Cleanup(srv.Close)
	info, err := f.CreateDevice(CreateDeviceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Install(info.ID, InstallRequest{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE gia_serve_devices_created counter",
		"gia_serve_devices_created 1",
		"# TYPE gia_serve_tx_ns histogram",
		`gia_serve_tx_ns_bucket{le="+Inf"} 1`,
		`gia_serve_tx_ns_quantiles{quantile="0.99"}`,
		"# TYPE gia_serve_shard0_tx_ns histogram",
		"gia_serve_shard0_err_permille 0",
		"gia_arena_misses 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
	// Default format stays the text table.
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body2), "== counters ==") {
		t.Error("default /metrics no longer renders the text table")
	}
}

func TestEventsSSE(t *testing.T) {
	reg := obs.NewRegistry()
	f := newTestFleet(t, Config{Shards: 1, Registry: reg})
	srv := httptest.NewServer(NewHandler(f, reg))
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	// The subscription races the publish; keep creating devices until one
	// lands on the stream.
	deadline := time.After(8 * time.Second)
	var got []string
	for {
		if _, err := f.CreateDevice(CreateDeviceRequest{}); err != nil {
			t.Fatal(err)
		}
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended early; saw %v", got)
			}
			got = append(got, line)
			if strings.Contains(line, `"kind":"device.created"`) {
				cancel()
				return
			}
		case <-deadline:
			t.Fatalf("no device.created event; saw %v", got)
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func TestSLOEndpointAndReport(t *testing.T) {
	reg := obs.NewRegistry()
	f := newTestFleet(t, Config{Shards: 2, Registry: reg, Clock: obs.TickingClock(time.Millisecond)})
	srv := httptest.NewServer(NewHandler(f, reg))
	t.Cleanup(srv.Close)

	info, err := f.CreateDevice(CreateDeviceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Install(info.ID, InstallRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	rep := f.SLO()
	if rep.Devices != 1 || rep.Tx != 3 || rep.Errors != 0 || rep.ErrRate != 0 {
		t.Fatalf("SLO report: %+v", rep)
	}
	if len(rep.Shards) != 2 {
		t.Fatalf("shard rows = %d, want 2", len(rep.Shards))
	}
	var shardTx int64
	for _, s := range rep.Shards {
		shardTx += s.Tx
		if s.Tx > 0 && s.P50NS <= 0 {
			t.Errorf("shard %d has tx but p50=%d", s.Shard, s.P50NS)
		}
	}
	if shardTx != 3 {
		t.Errorf("per-shard tx sums to %d, want 3", shardTx)
	}
	if rep.P50NS <= 0 || rep.P99NS < rep.P50NS {
		t.Errorf("fleet quantiles p50=%d p99=%d", rep.P50NS, rep.P99NS)
	}

	resp, err := http.Get(srv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded SLOReport
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Tx != 3 || len(decoded.Shards) != 2 {
		t.Errorf("GET /slo decoded %+v", decoded)
	}
}

func TestShardSLORollingWindow(t *testing.T) {
	s := newShardSLO(0, obs.NewRegistry())
	// Fill a window with errors, then push them out with successes.
	for i := 0; i < sloWindow; i++ {
		s.record(1000, true)
	}
	if _, errs, winErrs, winN := s.read(); errs != sloWindow || winErrs != sloWindow || winN != sloWindow {
		t.Fatalf("after error fill: errs=%d winErrs=%d winN=%d", errs, winErrs, winN)
	}
	for i := 0; i < sloWindow; i++ {
		s.record(1000, false)
	}
	total, errs, winErrs, winN := s.read()
	if total != 2*sloWindow || errs != sloWindow {
		t.Fatalf("all-time totals: total=%d errs=%d", total, errs)
	}
	if winErrs != 0 || winN != sloWindow {
		t.Fatalf("rolling window not flushed: winErrs=%d winN=%d", winErrs, winN)
	}
}

func TestReplayViolationDumpsFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	f := newTestFleet(t, Config{Shards: 1, Registry: reg, DumpDir: dir})

	// GooglePlay stages in app-private storage: the canonical hijack
	// invariant fails there, so the replay is a violation — the
	// flight-recorder dump trigger under GET /replay.
	token := chaos.Schedule{Seed: 7}.Token()
	res, err := f.Replay(ReplayRequest{Token: token, Store: "googleplay"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violated {
		t.Fatalf("googleplay replay should violate: %+v", res)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var chrome string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".trace.json") {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			chrome = string(b)
		}
	}
	if chrome == "" {
		t.Fatalf("no Chrome-trace dump in %s (files: %v)", dir, entries)
	}
	if !strings.Contains(chrome, res.Resolved) {
		t.Errorf("dump lacks the replay token %q", res.Resolved)
	}
	if !strings.Contains(chrome, "chaos.violation") {
		t.Error("dump lacks the chaos.violation marker")
	}
	if !strings.Contains(chrome, "invocation") {
		t.Error("dump lacks the AIT step events")
	}
	// The replay's run track was dropped after the dump.
	for _, k := range f.flight.Tracks() {
		if strings.HasPrefix(k.Name(), "run/") {
			t.Errorf("replay run track leaked: %s", k.Name())
		}
	}
	// Metrics counted the dump.
	if got := reg.Snapshot().Counter("chaos.dumps"); got != 1 {
		t.Errorf("chaos.dumps = %d, want 1", got)
	}
}
