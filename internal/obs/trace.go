package obs

import (
	"sort"
	"sync"
	"time"
)

// Clock reads a monotonic timestamp measured from some fixed origin. The
// virtual domain uses sim.Scheduler.Now; the wall domain uses Stopwatch
// (or a deterministic fake in tests).
type Clock func() time.Duration

// Stopwatch returns a real monotonic wall clock starting at zero now.
func Stopwatch() Clock {
	start := time.Now() //gia:wallclock — the blessed wall clock every wall-time span and latency reads
	return func() time.Duration { return time.Since(start) }
}

// TickingClock returns a deterministic fake wall clock that advances by
// step on every reading — enough to give test spans distinct, stable
// timestamps without touching the real clock.
func TickingClock(step time.Duration) Clock {
	var mu sync.Mutex
	var now time.Duration
	return func() time.Duration {
		mu.Lock()
		defer mu.Unlock()
		now += step
		return now
	}
}

// Domain is a trace clock domain. Events never compare across domains:
// exporters render each domain as its own process.
type Domain uint8

const (
	// DomainVirtual is simulated time, measured from device boot.
	DomainVirtual Domain = iota
	// DomainWall is host time, measured from an injectable stopwatch.
	DomainWall
)

func (d Domain) String() string {
	if d == DomainWall {
		return "wall"
	}
	return "virtual"
}

// Event is one recorded trace event. An Event with Instant set marks a
// point in time; otherwise it is a span of Dur starting at Start (Dur < 0
// means the span never ended).
type Event struct {
	Name    string
	Detail  string
	Start   time.Duration
	Dur     time.Duration
	Instant bool
}

// Trace collects tracks across both clock domains. The nil Trace is a
// valid disabled trace: VirtualTrack and WallTrack return nil tracks,
// whose methods are all no-ops. A Trace is safe for concurrent use.
type Trace struct {
	mu        sync.Mutex
	wall      Clock
	ringDepth int
	tracks    map[trackKey]*Track
}

type trackKey struct {
	domain Domain
	name   string
}

// NewTrace builds an empty trace. The wall domain starts on a real
// stopwatch; SetWallClock swaps in a fake (or nil to disable wall tracks,
// which is what keeps multi-worker chaos exports deterministic).
func NewTrace() *Trace {
	return &Trace{wall: Stopwatch(), tracks: make(map[trackKey]*Track)}
}

// SetWallClock replaces the wall-domain clock. Passing nil disables the
// wall domain: WallTrack returns nil until a clock is installed again.
func (t *Trace) SetWallClock(c Clock) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wall = c
}

// SetRingDepth turns the trace into a flight recorder: tracks created
// after the call are bounded rings holding the last n events each, with
// slot storage preallocated so appends never allocate and overwritten
// events counted in Track.Dropped. n <= 0 restores unbounded tracks.
// Existing tracks keep their mode — size the recorder before wiring
// instrumentation.
func (t *Trace) SetRingDepth(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 {
		n = 0
	}
	t.ringDepth = n
}

// Drop removes the named track from the trace, so long-lived processes
// (the fleet daemon reclaiming devices) do not accumulate dead tracks.
// Dropping a track that does not exist is a no-op.
func (t *Trace) Drop(d Domain, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.tracks, trackKey{domain: d, name: name})
}

// VirtualTrack returns the named virtual-time track, creating it on first
// use. The track has no clock until SetClock binds it to a scheduler;
// until then only the explicit-timestamp recorders (InstantAt, SpanAt)
// place events meaningfully. A nil trace returns nil.
func (t *Trace) VirtualTrack(name string) *Track {
	if t == nil {
		return nil
	}
	return t.track(DomainVirtual, name, nil)
}

// WallTrack returns the named wall-clock track, creating it on first use
// with the trace's wall clock. It returns nil — a disabled track — when
// the trace is nil or the wall domain is disabled.
func (t *Trace) WallTrack(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	wall := t.wall
	t.mu.Unlock()
	if wall == nil {
		return nil
	}
	return t.track(DomainWall, name, wall)
}

func (t *Trace) track(d Domain, name string, clock Clock) *Track {
	key := trackKey{domain: d, name: name}
	t.mu.Lock()
	defer t.mu.Unlock()
	k, ok := t.tracks[key]
	if !ok {
		k = &Track{domain: d, name: name, clock: clock}
		if t.ringDepth > 0 {
			// Ring slots are preallocated here, once, so the append path
			// is a slot store — zero allocations per event.
			k.depth = t.ringDepth
			k.events = make([]Event, t.ringDepth)
			k.seqs = make([]uint64, t.ringDepth)
		}
		t.tracks[key] = k
	}
	return k
}

// Tracks returns every track sorted by (domain, name) — the deterministic
// order all exporters use.
func (t *Trace) Tracks() []*Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]*Track, 0, len(t.tracks))
	for _, k := range t.tracks {
		out = append(out, k)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].domain != out[j].domain {
			return out[i].domain < out[j].domain
		}
		return out[i].name < out[j].name
	})
	return out
}

// Track is one named event lane of a trace (a device, a worker, a chaos
// run). The nil Track is a valid disabled track, and the zero Track an
// unnamed, unbounded virtual-time track that belongs to no trace (a
// device timeline). A Track is safe for concurrent use.
//
// A track runs in one of two modes, fixed at creation. Unbounded (the
// default): events accumulate until exported. Ring (Trace.SetRingDepth):
// events land in a preallocated circular buffer of depth slots, the
// append path allocates nothing, and once the ring is full each append
// evicts the oldest event (counted by Dropped). Every append in either
// mode is assigned a monotonically increasing sequence number, which is
// what EventsSince pages on and what lets a Span survive — or detect —
// eviction of its open event.
type Track struct {
	domain Domain
	name   string
	depth  int // ring capacity; 0 = unbounded

	mu      sync.Mutex
	clock   Clock
	events  []Event
	seqs    []uint64 // ring mode: sequence number held by each slot
	seq     uint64   // next sequence number (== total events appended)
	dropped uint64   // ring mode: events evicted by overwrite
}

// Domain reports the track's clock domain.
func (k *Track) Domain() Domain {
	if k == nil {
		return DomainVirtual
	}
	return k.domain
}

// Name reports the track's name (empty on a nil track).
func (k *Track) Name() string {
	if k == nil {
		return ""
	}
	return k.name
}

// SetClock binds the track's implicit-timestamp recorders (Begin, Instant)
// to a clock — for virtual tracks, the owning scheduler's Now.
func (k *Track) SetClock(c Clock) {
	if k == nil {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.clock = c
}

// now must be called with k.mu held.
func (k *Track) now() time.Duration {
	if k.clock == nil {
		return 0
	}
	return k.clock()
}

// append records ev and returns its sequence number; k.mu must be held.
// In ring mode this is a slot store (the event's string fields are header
// copies into preallocated storage) — no allocation on any append.
func (k *Track) append(ev Event) uint64 {
	seq := k.seq
	if k.depth > 0 {
		slot := int(seq % uint64(k.depth))
		if seq >= uint64(k.depth) {
			k.dropped++
		}
		k.events[slot] = ev
		k.seqs[slot] = seq
	} else {
		k.events = append(k.events, ev)
	}
	k.seq = seq + 1
	return seq
}

// Begin opens a span at the current clock reading and returns its handle.
// On a nil track the returned zero Span is itself a no-op.
func (k *Track) Begin(name, detail string) Span {
	if k == nil {
		return Span{}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	seq := k.append(Event{Name: name, Detail: detail, Start: k.now(), Dur: -1})
	return Span{k: k, seq: seq}
}

// Instant records a point event at the current clock reading.
func (k *Track) Instant(name, detail string) {
	if k == nil {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.append(Event{Name: name, Detail: detail, Start: k.now(), Instant: true})
}

// InstantAt records a point event with an explicit timestamp. Hooks that
// fire with a scheduler lock held use this instead of Instant, because the
// clock they would read takes that same lock.
func (k *Track) InstantAt(at time.Duration, name, detail string) {
	if k == nil {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.append(Event{Name: name, Detail: detail, Start: at, Instant: true})
}

// SpanAt records a completed span with explicit timestamps.
func (k *Track) SpanAt(start, dur time.Duration, name, detail string) {
	if k == nil {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.append(Event{Name: name, Detail: detail, Start: start, Dur: dur})
}

// firstLive returns the sequence number of the oldest event still held;
// k.mu must be held.
func (k *Track) firstLive() uint64 {
	if k.depth > 0 && k.seq > uint64(k.depth) {
		return k.seq - uint64(k.depth)
	}
	return 0
}

// copyRange appends events [from, k.seq) in sequence order to dst; k.mu
// must be held and from must be >= firstLive.
func (k *Track) copyRange(dst []Event, from uint64) []Event {
	if k.depth > 0 {
		for s := from; s < k.seq; s++ {
			dst = append(dst, k.events[int(s%uint64(k.depth))])
		}
		return dst
	}
	return append(dst, k.events[from:]...)
}

// Events returns a copy of the track's events in recording order (for a
// ring track, the retained window oldest-first).
func (k *Track) Events() []Event {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	from := k.firstLive()
	return k.copyRange(make([]Event, 0, k.seq-from), from)
}

// EventsSince returns the events with sequence number >= since that the
// track still holds, oldest-first, plus the next sequence number to poll
// from. Streaming consumers (the /devices/{id}/trace?follow=1 handler)
// call it in a loop: events appended between calls appear exactly once,
// and events evicted before a slow consumer caught up are skipped (the
// gap is visible as next - since - len(events) on the previous call).
func (k *Track) EventsSince(since uint64) ([]Event, uint64) {
	if k == nil {
		return nil, 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	from := k.firstLive()
	if since > from {
		from = since
	}
	if from >= k.seq {
		return nil, k.seq
	}
	return k.copyRange(make([]Event, 0, k.seq-from), from), k.seq
}

// Dropped reports how many events a ring track has evicted by overwrite
// (always zero on unbounded and nil tracks).
func (k *Track) Dropped() uint64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.dropped
}

// TailTrack builds an unbounded snapshot track holding k's last n events
// (all of them when n <= 0 or n exceeds what the track holds) — the shape
// flight-recorder dumps feed to WriteChromeTracks/WriteJSONLTracks. A nil
// track yields nil.
func TailTrack(k *Track, n int) *Track {
	if k == nil {
		return nil
	}
	evs := k.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return &Track{domain: k.domain, name: k.name, events: evs, seq: uint64(len(evs))}
}

// Sorted builds an unbounded snapshot track, shaped like TailTrack's,
// holding k's events stably sorted by start time: the merged-timeline
// order. Events of one instant keep their recording order, so events
// recorded live stay ahead of same-instant events written afterwards at
// their own timestamps (an AIT's steps, installer.Result.Record). A nil
// track yields nil.
func (k *Track) Sorted() *Track {
	s := TailTrack(k, 0)
	if s != nil {
		sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].Start < s.events[j].Start })
	}
	return s
}

// Span is an open span handle. The zero Span (from a nil track's Begin)
// is a no-op. Spans are values: copying one is fine, End is idempotent in
// effect only if called once — call it exactly once per Begin. On a ring
// track whose open event has been evicted by newer appends, End quietly
// does nothing.
type Span struct {
	k   *Track
	seq uint64
}

// End closes the span at the track clock's current reading.
func (s Span) End() { s.EndDetail("") }

// EndDetail closes the span and, when detail is non-empty, replaces the
// span's detail with the outcome observed at completion.
func (s Span) EndDetail(detail string) {
	if s.k == nil {
		return
	}
	s.k.mu.Lock()
	defer s.k.mu.Unlock()
	ev := s.k.eventAt(s.seq)
	if ev == nil {
		return // evicted from the ring before the span closed
	}
	ev.Dur = s.k.now() - ev.Start
	if detail != "" {
		ev.Detail = detail
	}
}

// eventAt returns the live event holding sequence number seq, or nil if
// the ring has evicted it; k.mu must be held.
func (k *Track) eventAt(seq uint64) *Event {
	if k.depth > 0 {
		slot := int(seq % uint64(k.depth))
		if seq >= k.seq || k.seqs[slot] != seq {
			return nil
		}
		return &k.events[slot]
	}
	if seq >= uint64(len(k.events)) {
		return nil
	}
	return &k.events[seq]
}
