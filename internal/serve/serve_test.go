package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
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

	info, err := f.CreateDevice(CreateDeviceRequest{Store: "amazon"})
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
	if got.ID != info.ID {
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

	ring, err := f.DeviceTrack(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ring.Events()) == 0 {
		t.Fatal("flight ring empty after install + attacks")
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
	_, err := f.CreateDevice(CreateDeviceRequest{Store: "nope"})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown store: %v, want ErrBadRequest", err)
	}
	// The 400 body names every accepted store.
	if want := `serve: bad request: unknown store "nope" (want one of [amazon amazon-v2 apkpure baidu dtignite galaxy-apps googleplay huawei qihoo360 slideme sprintzone tencent xiaomi])`; err.Error() != want {
		t.Errorf("unknown store error = %q, want %q", err, want)
	}
	info, err := f.CreateDevice(CreateDeviceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Attack(info.ID, AttackRequest{Strategy: "nope"})
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown strategy: %v, want ErrBadRequest", err)
	}
	if want := `serve: bad request: unknown strategy "nope" (want file-observer or wait-and-see)`; err.Error() != want {
		t.Errorf("unknown strategy error = %q, want %q", err, want)
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
	if resp := post("/devices", CreateDeviceRequest{Store: "amazon"}, &info); resp.StatusCode != http.StatusCreated {
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

	var rep ReplayResult
	if resp := post("/replay", ReplayRequest{Token: chaos.Schedule{Seed: 7}.Token()}, &rep); resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d", resp.StatusCode)
	}
	if rep.Violated {
		t.Fatalf("replay violated on plain schedule: %+v", rep)
	}

	resp, err := http.Get(srv.URL + "/metrics")
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
	// So does a field the API does not have: the strict decoder refuses a
	// create that asks for a per-device "timeline" recorder.
	if resp := post("/devices", map[string]bool{"timeline": true}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create with timeline: status %d, want 400", resp.StatusCode)
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

	// payload_bytes above the limit is refused with a 400 on both routes
	// that materialize a payload; exactly the limit still succeeds.
	if resp := post("/devices", CreateDeviceRequest{PayloadBytes: maxPayloadBytes + 1}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create over payload limit: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/devices/"+info.ID+"/install", InstallRequest{PayloadBytes: maxPayloadBytes + 1}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("install over payload limit: status %d, want 400", resp.StatusCode)
	}
	var big DeviceInfo
	if resp := post("/devices", CreateDeviceRequest{PayloadBytes: maxPayloadBytes}, &big); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create at payload limit: status %d", resp.StatusCode)
	}
	ins = InstallResult{}
	if resp := post("/devices/"+big.ID+"/install", InstallRequest{PayloadBytes: maxPayloadBytes}, &ins); resp.StatusCode != http.StatusOK {
		t.Fatalf("install at payload limit: status %d", resp.StatusCode)
	}
	if !ins.Clean {
		t.Fatalf("install at payload limit not clean: %+v", ins)
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

// TestCreateDeleteReleasesPayloads runs create(+attack)+delete cycles
// with payloads of their own. Once a device is deleted nothing may keep
// its target alive, so the heap after GC must stay near where it started.
func TestCreateDeleteReleasesPayloads(t *testing.T) {
	for _, tc := range []struct {
		name     string
		attack   bool
		installs int // 1 MiB installs per device
		cycles   int
		payload  func(i int) int
		budget   int64
	}{
		// Distinct ~1 MiB payloads: one retained target per cycle (payload,
		// its copy in the APK and the encoded archive) would hold >100 MiB.
		{"distinct", false, 0, 40, func(i int) int { return 1<<20 + i }, 16 << 20},
		// Two payloads, alternating, each device attacked: the one-entry
		// target memo rebuilds the other payload's target on every switch,
		// so the attack's repackage must be shared by equal targets.
		{"alternating-attacked", true, 0, 24, func(i int) int { return 256<<10 + i%2 }, 8 << 20},
		// Every install publishes a new package, so each decoded 1 MiB
		// image is a decode-cache entry no later install hits: 40 of them
		// must not outlive their devices beyond the cache's byte cap.
		{"installed", false, 5, 8, func(int) int { return 0 }, 32 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFleet(t, Config{Shards: 1, Seed: 13})
			cycle := func(i int) {
				info, err := f.CreateDevice(CreateDeviceRequest{Store: "amazon", PayloadBytes: tc.payload(i)})
				if err != nil {
					t.Fatal(err)
				}
				if tc.attack {
					if _, err := f.Attack(info.ID, AttackRequest{}); err != nil {
						t.Fatal(err)
					}
				}
				for j := 0; j < tc.installs; j++ {
					if _, err := f.Install(info.ID, InstallRequest{PayloadBytes: 1 << 20}); err != nil {
						t.Fatal(err)
					}
				}
				if err := f.DeleteDevice(info.ID); err != nil {
					t.Fatal(err)
				}
			}
			// Warm-up: boots the shard's pooled device and fills the image
			// caches.
			cycle(0)
			cycle(1)
			before := heapAfterGC()
			for i := 2; i < 2+tc.cycles; i++ {
				cycle(i)
			}
			growth := int64(heapAfterGC()) - int64(before)
			t.Logf("heap growth after %d cycles: %.1f MiB", tc.cycles, float64(growth)/(1<<20))
			if growth > tc.budget {
				t.Fatalf("%d cycles retained %.1f MiB, budget %d MiB", tc.cycles, float64(growth)/(1<<20), tc.budget>>20)
			}
		})
	}
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
