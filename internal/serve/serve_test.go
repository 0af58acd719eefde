package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ghost-installer/gia/internal/chaos"
	"github.com/ghost-installer/gia/internal/obs"
)

func newTestFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	f := NewFleet(cfg)
	t.Cleanup(f.Close)
	return f
}

func TestFleetLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	f := newTestFleet(t, Config{Shards: 2, Seed: 11, Registry: reg})

	info, err := f.CreateDevice(CreateDeviceRequest{Store: "amazon", Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Store != "amazon" {
		t.Fatalf("bad device info: %+v", info)
	}

	got, err := f.Device(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != info.ID || !got.Timeline {
		t.Fatalf("status mismatch: %+v", got)
	}

	ins, err := f.Install(info.ID, InstallRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !ins.Clean || ins.Err != "" {
		t.Fatalf("expected clean install, got %+v", ins)
	}

	// Amazon stages on the SD card unpatched: the hijack should land.
	atk, err := f.Attack(info.ID, AttackRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !atk.Hijacked {
		t.Fatalf("expected hijack on unpatched amazon device, got %+v", atk)
	}
	// A second attack re-runs the AIT; the attacker-signed target may be
	// replaced in place (same signer, same version), so this must not
	// error out.
	if _, err := f.Attack(info.ID, AttackRequest{Strategy: "wait-and-see"}); err != nil {
		t.Fatal(err)
	}

	entries, err := f.Timeline(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("timeline empty after install + attacks")
	}

	if err := f.DeleteDevice(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Device(info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("status after reclaim: %v, want ErrNotFound", err)
	}
	if err := f.DeleteDevice(info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double reclaim: %v, want ErrNotFound", err)
	}

	// Recreate: the reclaimed device must be served as an arena reset hit.
	if _, err := f.CreateDevice(CreateDeviceRequest{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if hits := snap.Counter("arena.hits"); hits != 1 {
		t.Fatalf("arena.hits = %d, want 1 (recreate should reuse the reclaimed device)", hits)
	}
	if active := snap.Gauge("serve.devices.active"); active != 1 {
		t.Fatalf("serve.devices.active = %d, want 1", active)
	}
}

func TestPatchedDeviceBlocksHijack(t *testing.T) {
	f := newTestFleet(t, Config{Shards: 1, Seed: 3})
	info, err := f.CreateDevice(CreateDeviceRequest{Store: "amazon", Patched: true})
	if err != nil {
		t.Fatal(err)
	}
	atk, err := f.Attack(info.ID, AttackRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if atk.Hijacked {
		t.Fatalf("hijack landed on a FUSE-patched device: %+v", atk)
	}
}

func TestBadRequests(t *testing.T) {
	f := newTestFleet(t, Config{Shards: 1})
	if _, err := f.CreateDevice(CreateDeviceRequest{Store: "nope"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown store: %v, want ErrBadRequest", err)
	}
	info, err := f.CreateDevice(CreateDeviceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attack(info.ID, AttackRequest{Strategy: "nope"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown strategy: %v, want ErrBadRequest", err)
	}
	if _, err := f.Timeline(info.ID); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("timeline on non-timeline device: %v, want ErrBadRequest", err)
	}
	if _, err := f.Replay(ReplayRequest{Token: "not-a-token"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad token: %v, want ErrBadRequest", err)
	}
}

func TestReplayToken(t *testing.T) {
	f := newTestFleet(t, Config{Shards: 1})
	token := chaos.Schedule{Seed: 7}.Token()
	res, err := f.Replay(ReplayRequest{Token: token})
	if err != nil {
		t.Fatal(err)
	}
	// A plain fault-free schedule lets the canonical hijack land, so the
	// invariant holds and nothing is violated.
	if res.Violated {
		t.Fatalf("plain schedule reported violated: %+v", res)
	}
	if res.Resolved == "" {
		t.Fatal("missing resolved token")
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	f := NewFleet(Config{Shards: 1, Registry: obs.NewRegistry()})
	info, err := f.CreateDevice(CreateDeviceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		close(started)
		_, err := f.Install(info.ID, InstallRequest{})
		finished <- err
	}()
	<-started
	f.Close()
	// The in-flight install must have been drained, not aborted.
	select {
	case err := <-finished:
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("in-flight install failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain the in-flight install")
	}
	if _, err := f.CreateDevice(CreateDeviceRequest{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after close: %v, want ErrClosed", err)
	}
	f.Close() // idempotent
}

func TestIdleReclaimLoop(t *testing.T) {
	reg := obs.NewRegistry()
	f := newTestFleet(t, Config{
		Shards:      1,
		Registry:    reg,
		IdleReclaim: 50 * time.Millisecond,
		ReclaimTick: 10 * time.Millisecond,
	})
	if _, err := f.CreateDevice(CreateDeviceRequest{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second) //gia:wallclock — test poll deadline
	for time.Now().Before(deadline) {            //gia:wallclock — test poll deadline
		if len(f.Devices()) == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := len(f.Devices()); n != 0 {
		t.Fatalf("idle device not reclaimed: %d still active", n)
	}
	if got := reg.Snapshot().Counter("serve.devices.idle_reclaims"); got != 1 {
		t.Fatalf("serve.devices.idle_reclaims = %d, want 1", got)
	}
}

func TestHTTPAPI(t *testing.T) {
	reg := obs.NewRegistry()
	f := newTestFleet(t, Config{Shards: 2, Seed: 5, Registry: reg})
	srv := httptest.NewServer(NewHandler(f, reg))
	defer srv.Close()

	post := func(path string, body, out any) *http.Response {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Post(srv.URL+path, "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp
	}

	var info DeviceInfo
	if resp := post("/devices", CreateDeviceRequest{Store: "amazon", Timeline: true}, &info); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}

	var ins InstallResult
	if resp := post("/devices/"+info.ID+"/install", nil, &ins); resp.StatusCode != http.StatusOK {
		t.Fatalf("install: status %d", resp.StatusCode)
	}
	if !ins.Clean {
		t.Fatalf("install not clean: %+v", ins)
	}

	var atk AttackResult
	if resp := post("/devices/"+info.ID+"/attack", AttackRequest{Strategy: "file-observer"}, &atk); resp.StatusCode != http.StatusOK {
		t.Fatalf("attack: status %d", resp.StatusCode)
	}
	if !atk.Hijacked {
		t.Fatalf("attack did not hijack: %+v", atk)
	}

	resp, err := http.Get(srv.URL + "/devices/" + info.ID + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	var tl struct {
		Entries []TimelineEntry `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tl.Entries) == 0 {
		t.Fatal("timeline empty over HTTP")
	}

	var rep ReplayResult
	if resp := post("/replay", ReplayRequest{Token: chaos.Schedule{Seed: 7}.Token()}, &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d", resp.StatusCode)
	}
	if rep.Violated {
		t.Fatalf("replay violated on plain schedule: %+v", rep)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if _, err := text.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, want := range []string{"serve.devices.created", "serve.installs", "serve.attacks.hijacked", "arena.misses", "serve.http.requests"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("metrics text missing %q:\n%s", want, text.String())
		}
	}

	// Delete over HTTP, then a GET must 404.
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/devices/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/devices/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
	}

	// Unknown store maps to 400.
	if resp := post("/devices", CreateDeviceRequest{Store: "bogus"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad store: status %d, want 400", resp.StatusCode)
	}

	// A body over the size limit is refused with a 400, though it is valid
	// JSON for a default create, and the fleet keeps serving the next
	// request.
	huge := strings.Repeat(" ", maxBodyBytes) + "{}"
	resp, err = http.Post(srv.URL+"/devices", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/devices", CreateDeviceRequest{}, &info); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after oversized body: status %d", resp.StatusCode)
	}
}

func TestDeviceInfoJSONShape(t *testing.T) {
	// Pin the wire shape the smoke gate and clients script against.
	b, err := json.Marshal(DeviceInfo{ID: "d000001", Store: "amazon", CreatedAt: "2017-01-01T00:00:00Z"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id"`, `"store"`, `"virtual_ms"`, `"packages"`, `"created_at"`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("DeviceInfo JSON missing %s: %s", want, b)
		}
	}
}

func TestStoreNamesCoverAllProfiles(t *testing.T) {
	names := StoreNames()
	if len(names) != 13 {
		t.Fatalf("StoreNames() = %d entries, want 13 (every paper store profile): %v", len(names), names)
	}
	for _, name := range names {
		if _, _, err := profileFor(name); err != nil {
			t.Fatalf("profileFor(%q): %v", name, err)
		}
	}
}

func TestDeriveSeedDisperses(t *testing.T) {
	seen := make(map[int64]bool)
	for i := int64(1); i <= 4096; i++ {
		s := deriveSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at device %d", i)
		}
		seen[s] = true
	}
}

func ExampleStoreNames() {
	fmt.Println(strings.Join(StoreNames()[:3], ","))
	// Output: amazon,amazon-v2,apkpure
}
