package serve

import (
	"os"
	"path/filepath"

	"github.com/ghost-installer/gia/internal/obs"
)

// Flight-recorder wiring: the fleet keeps a ring-mode obs.Trace with one
// bounded track per live device (plus the replay explorer's run tracks),
// appended to on every transaction at zero allocations. Three triggers
// dump ring tails retroactively — serve transaction errors and failed
// arena resets here, chaos replay violations inside the explorer — and
// the same rings feed GET /devices/{id}/trace live.

// DeviceTrack returns the named device's flight-recorder ring.
// ErrNotFound for unknown devices; a bad request when the recorder is
// disabled. The track is internally synchronized, so readers never touch
// the shard goroutine.
func (f *Fleet) DeviceTrack(id string) (*obs.Track, error) {
	f.mu.Lock()
	d, ok := f.devices[id]
	f.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	if d.ring == nil {
		return nil, badRequestf("flight recorder disabled (run with -flight-recorder-depth > 0)")
	}
	return d.ring, nil
}

// dumpTracks writes the given ring tails under cfg.DumpDir as
// <stem>.trace.json and <stem>.jsonl. Best-effort, like the chaos
// explorer's dumps: failures bump serve.flight.dump_errors.
func (f *Fleet) dumpTracks(stem string, tracks []*obs.Track) {
	if f.cfg.DumpDir == "" || len(tracks) == 0 {
		return
	}
	tails := make([]*obs.Track, 0, len(tracks))
	for _, k := range tracks {
		if k != nil {
			tails = append(tails, obs.TailTrack(k, 0)) // rings are already bounded
		}
	}
	if len(tails) == 0 {
		return
	}
	base := filepath.Join(f.cfg.DumpDir, stem)
	failed := false
	if fh, err := os.Create(base + ".trace.json"); err != nil {
		failed = true
	} else {
		werr := obs.WriteChromeTracks(fh, tails)
		if cerr := fh.Close(); werr != nil || cerr != nil {
			failed = true
		}
	}
	if fh, err := os.Create(base + ".jsonl"); err != nil {
		failed = true
	} else {
		werr := obs.WriteJSONLTracks(fh, tails)
		if cerr := fh.Close(); werr != nil || cerr != nil {
			failed = true
		}
	}
	if failed {
		f.reg.Counter("serve.flight.dump_errors").Inc()
	} else {
		f.reg.Counter("serve.flight.dumps").Inc()
	}
}

// dumpAll dumps every track the flight recorder currently holds (the
// failed-arena-reset trigger: the poisoned device is not identifiable
// from inside the arena, so the whole recorder state is the evidence).
func (f *Fleet) dumpAll(stem string) {
	if f.flight == nil {
		return
	}
	f.dumpTracks(stem, f.flight.Tracks())
}
