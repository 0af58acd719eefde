// Package serve turns the simulation library into a long-running fleet
// daemon: a Fleet manages thousands of concurrent simulated devices
// behind a lifecycle API, drives install transactions and GIA attacks on
// them, replays chaos tokens, and exposes the internal/obs registry.
//
// The layering: the API's request and result types (this file), the
// arena-backed Fleet (fleet.go, shard.go) and HTTP handlers over it
// (http.go). Devices live on goroutine-owned shards — one device arena
// per shard goroutine — so the not-concurrency-safe arena/sim contract is
// never violated no matter how many HTTP clients hit the same device at
// once: every per-device operation is a closure executed on the owning
// shard's goroutine.
package serve

import (
	"errors"
	"fmt"
	"time"

	"github.com/ghost-installer/gia/internal/attack"
	"github.com/ghost-installer/gia/internal/installer"
)

// Fleet errors, mapped onto HTTP statuses by the handler layer.
var (
	// ErrNotFound reports an unknown (or already reclaimed) device ID.
	ErrNotFound = errors.New("serve: device not found")
	// ErrClosed reports an operation against a draining/closed fleet.
	ErrClosed = errors.New("serve: fleet closed")
	// ErrBadRequest wraps client-side parameter errors.
	ErrBadRequest = errors.New("serve: bad request")
)

// txHorizon bounds each simulated transaction drive: attacker pollers
// never drain the event queue on their own (same constant as the
// experiment package's horizon).
const txHorizon = 2 * time.Minute

// maxPayloadBytes bounds payload_bytes on create and install: the shard
// materializes the payload in memory, so an unbounded value lets a tiny
// request allocate gigabytes. 4 MiB is well above the 900 KiB the studies
// use.
const maxPayloadBytes = 4 << 20

// checkPayload rejects a payload_bytes value above maxPayloadBytes.
func checkPayload(n int) error {
	if n > maxPayloadBytes {
		return badRequestf("payload_bytes %d exceeds the limit of %d", n, maxPayloadBytes)
	}
	return nil
}

// CreateDeviceRequest configures a new fleet device.
type CreateDeviceRequest struct {
	// Store selects the installer profile (see installer.StoreNames); default
	// "amazon".
	Store string `json:"store,omitempty"`
	// Patched enables the Section V-C FUSE defense on the device.
	Patched bool `json:"patched,omitempty"`
	// PayloadBytes sizes the published target APK's classes.dex; payloads
	// over 64 KiB make downloads multi-chunk. 0 means a minimal payload;
	// more than 4 MiB is refused.
	PayloadBytes int `json:"payload_bytes,omitempty"`
}

// DeviceInfo is the status view of one fleet device.
type DeviceInfo struct {
	ID        string `json:"id"`
	Store     string `json:"store"`
	Shard     int    `json:"shard"`
	Seed      int64  `json:"seed"`
	Patched   bool   `json:"patched,omitempty"`
	CreatedAt string `json:"created_at"`
	// VirtualMs is the device's simulated clock in milliseconds.
	VirtualMs int64 `json:"virtual_ms"`
	Packages  int   `json:"packages"`
	Installs  int   `json:"installs"`
	Attacks   int   `json:"attacks"`
	Hijacks   int   `json:"hijacks"`
}

// InstallRequest submits one clean install transaction. The daemon
// publishes a fresh package per transaction (repeated installs of one
// immutable package would be version-downgrade no-ops).
type InstallRequest struct {
	// PayloadBytes sizes the app payload; 0 uses a small default, and more
	// than 4 MiB is refused.
	PayloadBytes int `json:"payload_bytes,omitempty"`
}

// InstallResult reports one driven install transaction.
type InstallResult struct {
	Package   string `json:"package"`
	Installed bool   `json:"installed"`
	Clean     bool   `json:"clean"`
	Hijacked  bool   `json:"hijacked"`
	Attempts  int    `json:"attempts"`
	Err       string `json:"err,omitempty"`
	// VirtualMs is the device clock after the transaction.
	VirtualMs int64 `json:"virtual_ms"`
	// WallNS is the host wall-clock cost of driving the transaction.
	WallNS int64 `json:"wall_ns"`
}

// AttackRequest launches a GIA TOCTOU strategy against the device's
// published target app and drives one AIT under attack.
type AttackRequest struct {
	// Strategy is "file-observer" (default) or "wait-and-see".
	Strategy string `json:"strategy,omitempty"`
}

// AttackResult reports one attacked transaction.
type AttackResult struct {
	Target       string `json:"target"`
	Strategy     string `json:"strategy"`
	Hijacked     bool   `json:"hijacked"`
	Installed    bool   `json:"installed"`
	Attempts     int    `json:"attempts"`
	Replacements int    `json:"replacements"`
	Err          string `json:"err,omitempty"`
	VirtualMs    int64  `json:"virtual_ms"`
	WallNS       int64  `json:"wall_ns"`
}

// ReplayRequest re-executes a chaos replay token (gia1:…) against the
// canonical hijack invariant.
type ReplayRequest struct {
	Token string `json:"token"`
	// Store selects the profile the invariant runs on; default "amazon".
	Store string `json:"store,omitempty"`
	// Strategy selects the attack strategy; default "file-observer".
	Strategy string `json:"strategy,omitempty"`
}

// ReplayResult reports a replayed schedule.
type ReplayResult struct {
	Token string `json:"token"`
	// Resolved is the canonical schedule token actually executed.
	Resolved string `json:"resolved"`
	// Violated reports whether the invariant failed under this schedule.
	Violated bool   `json:"violated"`
	Detail   string `json:"detail,omitempty"`
}

func profileFor(store string) (string, installer.Profile, error) {
	if store == "" {
		store = "amazon"
	}
	prof, err := installer.ByName(store)
	if err != nil {
		return "", installer.Profile{}, badRequestf("%v", err)
	}
	return store, prof, nil
}

func strategyFor(name string) (attack.Strategy, error) {
	if name == "" {
		return attack.StrategyFileObserver, nil
	}
	strat, err := attack.ParseStrategy(name)
	if err != nil {
		return 0, badRequestf("%v", err)
	}
	return strat, nil
}

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}
