package sim

import (
	"container/heap"
	"math"
	"time"
)

// maxDeadline is the "no limit" bound Step passes to heapQueue.pop.
const maxDeadline = time.Duration(math.MaxInt64)

// heapQueue is the scheduler's priority queue of pending events: a binary
// heap ordered by (deadline, sequence), so same-deadline events pop in
// scheduling order. Every method is called with the scheduler lock held.
type heapQueue struct {
	h    eventHeap
	ties []*event
	drop func(*event) // recycles swept cancelled events
}

// size counts queued events, including cancelled ones not yet swept.
func (q *heapQueue) size() int { return len(q.h) }

func (q *heapQueue) push(ev *event) { heap.Push(&q.h, ev) }

// sweep removes cancelled events from the top of the heap.
func (q *heapQueue) sweep() {
	for len(q.h) > 0 && q.h[0].cancelled {
		q.drop(q.popEvent())
	}
}

// pop removes and returns the earliest live event with deadline <= limit,
// or nil. Cancelled events met on the way are swept and recycled.
func (q *heapQueue) pop(limit time.Duration) *event {
	q.sweep()
	if len(q.h) == 0 || q.h[0].at > limit {
		return nil
	}
	return q.popEvent()
}

// popTies removes and returns every live event sharing the earliest
// deadline <= limit, in scheduling (seq) order. The returned slice is owned
// by the queue and valid until the next popTies call.
func (q *heapQueue) popTies(limit time.Duration) []*event {
	q.sweep()
	if len(q.h) == 0 || q.h[0].at > limit {
		return nil
	}
	at := q.h[0].at
	q.ties = q.ties[:0]
	for len(q.h) > 0 && q.h[0].at == at {
		ev := q.popEvent()
		if ev.cancelled {
			q.drop(ev)
			continue
		}
		// Heap pops at equal deadlines come out in seq order already.
		q.ties = append(q.ties, ev)
	}
	return q.ties
}

// reset drops every queued event (recycling each), retaining the heap's
// capacity.
func (q *heapQueue) reset() {
	for _, ev := range q.h {
		q.drop(ev)
	}
	q.h = q.h[:0]
}

func (q *heapQueue) popEvent() *event {
	ev, ok := heap.Pop(&q.h).(*event)
	if !ok {
		panic("sim: event heap holds a non-event")
	}
	return ev
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) {
	ev, ok := x.(*event)
	if !ok {
		panic("sim: pushing a non-event")
	}
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Fingerprint is an order-independent digest of scheduler state, exposed for
// the reset-equivalence harness.
type Fingerprint struct {
	Now time.Duration
	Seq uint64
	// Pending counts live (non-cancelled) queued events; unswept cancelled
	// events are excluded because their sweep time is arbitrary.
	Pending int
	// Hash folds each live pending event's (deadline, seq) pair with a
	// commutative mix, so the heap layout cannot leak in.
	Hash uint64
}

// fold mixes one live event into the digest.
func (fp *Fingerprint) fold(ev *event) {
	if ev.cancelled {
		return
	}
	fp.Pending++
	h := uint64(ev.at)*0x9e3779b97f4a7c15 ^ ev.seq*0xbf58476d1ce4e5b9
	h ^= h >> 31
	fp.Hash += h
}
