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
	"sort"
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

// CreateDeviceRequest configures a new fleet device.
type CreateDeviceRequest struct {
	// Store selects the installer profile (see StoreNames); default
	// "amazon".
	Store string `json:"store,omitempty"`
	// Patched enables the Section V-C FUSE defense on the device.
	Patched bool `json:"patched,omitempty"`
	// Timeline attaches a per-device timeline recorder (staging-dir FS
	// events, package events, AIT summaries) served by
	// GET /devices/{id}/timeline. Off by default: a long-lived device
	// accumulates entries for every transaction it runs.
	Timeline bool `json:"timeline,omitempty"`
	// PayloadBytes sizes the published target APK's classes.dex; payloads
	// over 64 KiB make downloads multi-chunk. 0 means a minimal payload.
	PayloadBytes int `json:"payload_bytes,omitempty"`
}

// DeviceInfo is the status view of one fleet device.
type DeviceInfo struct {
	ID        string `json:"id"`
	Store     string `json:"store"`
	Shard     int    `json:"shard"`
	Seed      int64  `json:"seed"`
	Patched   bool   `json:"patched,omitempty"`
	Timeline  bool   `json:"timeline,omitempty"`
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
	// PayloadBytes sizes the app payload; 0 uses a small default.
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

// TimelineEntry is one recorded device event.
type TimelineEntry struct {
	AtMs   float64 `json:"at_ms"`
	Source string  `json:"source"`
	Detail string  `json:"detail"`
}

// storeProfiles maps API store names to installer profiles.
var storeProfiles = map[string]func() installer.Profile{
	"amazon":      installer.Amazon,
	"amazon-v2":   installer.AmazonV2,
	"xiaomi":      installer.Xiaomi,
	"baidu":       installer.Baidu,
	"qihoo360":    installer.Qihoo360,
	"dtignite":    installer.DTIgnite,
	"slideme":     installer.SlideMe,
	"tencent":     installer.Tencent,
	"huawei":      installer.HuaweiStore,
	"sprintzone":  installer.SprintZone,
	"apkpure":     installer.APKPure,
	"galaxy-apps": installer.GalaxyApps,
	"googleplay":  installer.GooglePlay,
}

// StoreNames lists the store profiles the API accepts, sorted.
func StoreNames() []string {
	out := make([]string, 0, len(storeProfiles))
	for name := range storeProfiles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func profileFor(store string) (string, installer.Profile, error) {
	if store == "" {
		store = "amazon"
	}
	mk, ok := storeProfiles[store]
	if !ok {
		return "", installer.Profile{}, badRequestf("unknown store %q (want one of %v)", store, StoreNames())
	}
	return store, mk(), nil
}

func strategyFor(name string) (attack.Strategy, error) {
	switch name {
	case "", "file-observer":
		return attack.StrategyFileObserver, nil
	case "wait-and-see":
		return attack.StrategyWaitAndSee, nil
	default:
		return 0, badRequestf("unknown strategy %q (want file-observer or wait-and-see)", name)
	}
}

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}
