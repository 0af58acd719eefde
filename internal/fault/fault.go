// Package fault defines the fault-injection contract between the simulated
// device's substrates (scheduler, filesystem, FUSE daemon, Download Manager,
// Intent system) and the chaos harness that drives them.
//
// Every substrate exposes a SetFaultInjector method and consults its
// injector — when one is installed — at a handful of named sites on its hot
// paths. The injector decides, deterministically, whether the operation at
// that site proceeds normally or suffers a fault: an I/O error, an extra
// delay, a dropped or duplicated delivery, or a truncated transfer. With no
// injector installed every site is a single nil check, so production runs
// pay nothing.
//
// The package holds only the contract (sites, actions, interfaces); the
// policy — which faults fire where and when — lives in internal/chaos.
package fault

import (
	"errors"
	"time"
)

// ErrInjected is the default error surfaced by KindError faults whose plan
// did not name a specific one. Code under test must treat it like any other
// I/O failure; tests can errors.Is against it to tell injected failures from
// organic ones.
var ErrInjected = errors.New("fault: injected error")

// Site names one injection point in a substrate. Sites are stable
// identifiers: fault plans reference them by value and replay tokens depend
// on them not changing meaning between runs.
type Site string

// The injection sites wired into the simulator.
const (
	// SiteSimEvent guards every event scheduled on the virtual clock.
	// Delay shifts the deadline; Duplicate schedules the callback twice;
	// Drop cancels it before it ever fires. The subject is empty: event
	// scheduling is anonymous, so plans select by time window and count.
	// The probe timestamp is the event's effective deadline (clamped to
	// the present), not the instant it was scheduled.
	SiteSimEvent Site = "sim.event"
	// SiteVFSOpen guards FS.Open. Subject: the path. Error-kind only.
	SiteVFSOpen Site = "vfs.open"
	// SiteVFSRead guards Handle.Read/ReadAt. Subject: the path.
	SiteVFSRead Site = "vfs.read"
	// SiteVFSWrite guards Handle.Write. Subject: the path.
	SiteVFSWrite Site = "vfs.write"
	// SiteVFSRename guards FS.Rename. Subject: the source path.
	SiteVFSRename Site = "vfs.rename"
	// SiteDMFetch guards the Download Manager's remote fetch. Subject: the
	// URL. Error-kind fails the download like a network error.
	SiteDMFetch Site = "dm.fetch"
	// SiteDMChunk guards each chunk write of a running download. Subject:
	// the destination path. Error fails the transfer, Delay stretches it,
	// Truncate ends it early with the download reported successful — the
	// classic silently-truncated transfer.
	SiteDMChunk Site = "dm.chunk"
	// SiteFuseCheck guards the FUSE daemon's access check. Subject: the
	// request path. Error-kind surfaces as a transient permission/IO
	// failure from the daemon.
	SiteFuseCheck Site = "fuse.check"
	// SiteIntentDeliver guards activity Intent delivery. Subject:
	// "sender->pkg/component". Drop loses the Intent after the firewall
	// has seen it, Delay adds latency, Duplicate delivers twice, Error is
	// returned to the sender as a binder failure.
	SiteIntentDeliver Site = "intent.deliver"
	// SiteIntentBroadcast guards per-receiver broadcast delivery. Subject:
	// "action->pkg".
	SiteIntentBroadcast Site = "intent.broadcast"
)

// Kind is the fault category an injector can request.
type Kind int

// Fault kinds. Sites ignore kinds that make no sense for them (a synchronous
// filesystem write cannot be delayed, only failed), so a plan targeting the
// wrong kind at a site is inert rather than an error.
const (
	// KindNone means "no fault": proceed normally.
	KindNone Kind = iota
	// KindError fails the operation with Action.Err.
	KindError
	// KindDelay postpones the operation by Action.Delay of virtual time.
	KindDelay
	// KindDrop silently discards the operation (event or Intent).
	KindDrop
	// KindDuplicate performs the operation twice.
	KindDuplicate
	// KindTruncate ends a transfer early, keeping what has arrived.
	KindTruncate
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindDrop:
		return "drop"
	case KindDuplicate:
		return "duplicate"
	case KindTruncate:
		return "truncate"
	default:
		return "kind(?)"
	}
}

// Action is the injector's verdict for one probe.
type Action struct {
	Kind  Kind
	Err   error         // KindError: the error to surface
	Delay time.Duration // KindDelay / KindDuplicate: the virtual-time shift
}

// None is the zero Action: no fault.
var None Action

// Injector decides the fault action for an operation reaching a site.
// Probe is called on the simulation goroutine at virtual time now with a
// site-specific subject (a path, URL or component route); implementations
// must be deterministic functions of their own state and the probe sequence,
// or replay guarantees break.
type Injector interface {
	Probe(site Site, subject string, now time.Duration) Action
}

// Target is any component that accepts a fault injector. Passing nil
// removes a previously installed injector.
type Target interface {
	SetFaultInjector(Injector)
}
