package serve

import (
	"errors"
	"sync"
	"testing"

	"github.com/ghost-installer/gia/internal/obs"
)

// The arena/sim substrates are not safe for concurrent use; the daemon's
// guarantee is that every per-device operation — no matter which HTTP
// goroutine it arrives on — executes as a closure on the device's owning
// shard goroutine. This test hammers a single device from many goroutines
// under the race detector (verify.sh runs it with -race): any fleet code
// touching simulation state off the shard goroutine is a detected race.
func TestShardOwnershipSerializesConcurrentOps(t *testing.T) {
	f := newTestFleet(t, Config{Shards: 2, Seed: 21, Registry: obs.NewRegistry()})
	info, err := f.CreateDevice(CreateDeviceRequest{Store: "amazon"})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const opsPerClient = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*opsPerClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				var err error
				switch (c + i) % 4 {
				case 0:
					_, err = f.Install(info.ID, InstallRequest{})
				case 1:
					_, err = f.Attack(info.ID, AttackRequest{})
				case 2:
					_, err = f.Device(info.ID)
				default:
					var ring *obs.Track
					if ring, err = f.DeviceTrack(info.ID); err == nil {
						ring.Events()
					}
				}
				if err != nil {
					errs <- err
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent op failed: %v", err)
	}

	// The device's per-transaction counters were only ever touched on the
	// shard goroutine, so they must add up exactly.
	got, err := f.Device(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantInstalls := 0
	wantAttacks := 0
	for c := 0; c < clients; c++ {
		for i := 0; i < opsPerClient; i++ {
			switch (c + i) % 4 {
			case 0:
				wantInstalls++
			case 1:
				wantAttacks++
			}
		}
	}
	if got.Installs != wantInstalls || got.Attacks != wantAttacks {
		t.Fatalf("counters lost under concurrency: installs=%d want %d, attacks=%d want %d",
			got.Installs, wantInstalls, got.Attacks, wantAttacks)
	}
}

// Creates, deletes and status calls racing across devices and shards:
// the fleet registry (map + placement) is mutex-guarded while simulation
// work stays shard-owned, and reclaimed devices come back warm from the
// shard arenas under that churn.
func TestConcurrentLifecycleAcrossShards(t *testing.T) {
	reg := obs.NewRegistry()
	const shards, workers, rounds = 3, 6, 10
	f := newTestFleet(t, Config{Shards: shards, Seed: 9, Registry: reg})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				info, err := f.CreateDevice(CreateDeviceRequest{})
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if _, err := f.Install(info.ID, InstallRequest{}); err != nil {
					t.Errorf("install: %v", err)
					return
				}
				if err := f.DeleteDevice(info.ID); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("delete: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(f.Devices()); n != 0 {
		t.Fatalf("devices leaked: %d", n)
	}

	// Every create acquires exactly once: a pooled reset (hit) or a boot
	// (miss). A shard boots only when its pool is empty, that is when every
	// device it ever booted is held by another worker, and a worker holds at
	// most one device. So no shard boots more than `workers` devices,
	// whatever the interleaving, and the remaining creates are warm hits.
	snap := reg.Snapshot()
	hits, misses := snap.Counter("arena.hits"), snap.Counter("arena.misses")
	if hits+misses != workers*rounds {
		t.Fatalf("arena acquisitions = %d hits + %d misses, want %d creates", hits, misses, workers*rounds)
	}
	if misses > shards*workers {
		t.Fatalf("arena.misses = %d, want <= %d: reclaimed devices were not reused", misses, shards*workers)
	}
}
