// Package memo provides a sharded, concurrency-safe, content-addressed
// memo table. Values are keyed by the SHA-256 of their source content, so
// identical inputs — regardless of which artifact they came from — resolve
// to one cached computation. Concurrent requests for the same key are
// deduplicated singleflight-style: the first caller computes, the rest
// wait on the in-flight entry. Resident entries are bounded by a per-shard
// LRU, and hit/miss/dedup/eviction counters make cache behaviour
// observable in scan statistics.
package memo

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"github.com/ghost-installer/gia/internal/obs"
)

// Key is a content address: the SHA-256 of the canonical input bytes.
type Key [sha256.Size]byte

// KeyOf hashes data into its content address.
func KeyOf(data []byte) Key { return sha256.Sum256(data) }

// Outcome says how a Do call was served.
type Outcome int

const (
	// Miss: this call ran compute and stored the result.
	Miss Outcome = iota
	// Hit: the value was resident; compute never ran.
	Hit
	// Deduped: another goroutine was already computing this key; this
	// call waited for that result instead of recomputing.
	Deduped
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Deduped:
		return "deduped"
	default:
		return "miss"
	}
}

// Stats is a point-in-time snapshot of table behaviour.
type Stats struct {
	Hits      int64
	Misses    int64
	Deduped   int64
	Evictions int64
	Entries   int // resident values right now
}

// numShards spreads lock contention; keys are cryptographic hashes, so
// sharding on the first key byte is uniform.
const numShards = 16

// Table memoizes computations by content address. The zero value is not
// usable; construct with New. A Table is safe for concurrent use.
type Table[V any] struct {
	perShard int
	shards   [numShards]shard[V]

	// The counters live on the obs layer so Observe can re-home them onto
	// a shared registry; New starts them private, making Stats usable with
	// no registry anywhere in sight.
	hits, misses, deduped, evictions *obs.Counter
}

type shard[V any] struct {
	mu    sync.Mutex
	lru   list.List // of *entry[V]; front = most recently used
	byKey map[Key]*entry[V]
}

// entry is one keyed computation. Between insertion into byKey and the
// close of done it is in-flight: val/err are unset and elem is nil.
// After done closes, val/err are immutable and — on success — elem links
// the entry into the LRU.
type entry[V any] struct {
	key  Key
	val  V
	err  error
	done chan struct{}
	elem *list.Element
}

// New builds a table bounded to roughly capacity resident entries
// (rounded up to a multiple of the shard count).
func New[V any](capacity int) *Table[V] {
	if capacity < numShards {
		capacity = numShards
	}
	t := &Table[V]{
		perShard:  (capacity + numShards - 1) / numShards,
		hits:      &obs.Counter{},
		misses:    &obs.Counter{},
		deduped:   &obs.Counter{},
		evictions: &obs.Counter{},
	}
	for i := range t.shards {
		t.shards[i].byKey = make(map[Key]*entry[V])
	}
	return t
}

// Observe re-homes the table's counters onto reg under "<prefix>.hits",
// "<prefix>.misses", "<prefix>.deduped" and "<prefix>.evictions", carrying
// current values over. Stats keeps working unchanged — it becomes a
// snapshot of the registry-owned counters. Call Observe before sharing the
// table across goroutines (it swaps counter pointers unsynchronized).
func (t *Table[V]) Observe(reg *obs.Registry, prefix string) {
	obs.Rehome(reg, prefix+".hits", &t.hits)
	obs.Rehome(reg, prefix+".misses", &t.misses)
	obs.Rehome(reg, prefix+".deduped", &t.deduped)
	obs.Rehome(reg, prefix+".evictions", &t.evictions)
}

func (t *Table[V]) shardFor(k Key) *shard[V] {
	return &t.shards[int(k[0])&(numShards-1)]
}

// Do returns the memoized value for k, running compute on a miss.
// Concurrent calls for one key run compute exactly once; the others block
// until it finishes and share the result. A failed compute is not cached:
// every waiter receives the error and the next Do for k retries.
func (t *Table[V]) Do(k Key, compute func() (V, error)) (V, Outcome, error) {
	s := t.shardFor(k)
	s.mu.Lock()
	if e, ok := s.byKey[k]; ok {
		if e.elem != nil { // resident
			s.lru.MoveToFront(e.elem)
			v := e.val
			s.mu.Unlock()
			t.hits.Add(1)
			return v, Hit, nil
		}
		s.mu.Unlock() // in-flight: wait outside the lock
		t.deduped.Add(1)
		<-e.done
		return e.val, Deduped, e.err
	}
	e := &entry[V]{key: k, done: make(chan struct{})}
	s.byKey[k] = e
	s.mu.Unlock()
	t.misses.Add(1)

	v, err := compute()
	s.mu.Lock()
	if err != nil {
		delete(s.byKey, k)
		e.err = err
	} else {
		e.val = v
		e.elem = s.lru.PushFront(e)
		for s.lru.Len() > t.perShard {
			oldest := s.lru.Back()
			victim := oldest.Value.(*entry[V])
			s.lru.Remove(oldest)
			delete(s.byKey, victim.key)
			t.evictions.Add(1)
		}
	}
	s.mu.Unlock()
	close(e.done)
	return v, Miss, err
}

// Get returns the resident value for k without computing.
func (t *Table[V]) Get(k Key) (V, bool) {
	s := t.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byKey[k]; ok && e.elem != nil {
		s.lru.MoveToFront(e.elem)
		t.hits.Add(1)
		return e.val, true
	}
	var zero V
	return zero, false
}

// Stats snapshots the counters and resident-entry count.
func (t *Table[V]) Stats() Stats {
	st := Stats{
		Hits:      t.hits.Value(),
		Misses:    t.misses.Value(),
		Deduped:   t.deduped.Value(),
		Evictions: t.evictions.Value(),
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		st.Entries += s.lru.Len()
		s.mu.Unlock()
	}
	return st
}
