package sim

import "math/bits"

// The engine's pending events live in a calendar queue: a ring of
// fixed-width time buckets for the near future, a small heap for the bucket
// being fired, and a heap for everything past the ring.
//
//   - active: every event whose bucket is <= cur, ordered by eventLess.
//   - ring:   events whose bucket lies in (cur, cur+ringSize), one
//     intrusive doubly linked list per bucket, unordered within it.
//   - far:    events scheduled ringSize or more buckets past cur at the
//     time they were queued (RTOs, slow control timers), ordered by
//     eventLess. Its minimum bucket is always > cur.
//
// When active runs dry the cursor moves to the earliest non-empty bucket of
// ring and far, and that bucket's events move into active. Because active
// holds every event at or before the cursor's bucket and nothing elsewhere
// is earlier, its top is the global minimum of eventLess, a strict total
// order; the firing sequence is therefore exactly the one a single
// eventLess-ordered heap produces. Bucket width and ring length only change
// how much work a schedule or a pop costs, never which event fires next.
const (
	bucketShift = 10 // bucket width 2^10 ps ≈ 1 ns
	ringBits    = 12
	ringSize    = 1 << ringBits // 4096 buckets ≈ 4.2 µs of near future
	ringMask    = ringSize - 1
	occWords    = ringSize / 64
)

// tier records which structure holds an event.
type tier uint8

const (
	tierNone   tier = iota // fired, cancelled or on the freelist
	tierActive             // active heap, at index
	tierRing               // ring bucket list
	tierFar                // far heap, at index
)

func bucketOf(t Time) int64 { return int64(t) >> bucketShift }

type eventQueue struct {
	active eventHeap
	far    eventHeap
	ring   [ringSize]*event // head of each bucket's list
	occ    [occWords]uint64 // bit per ring bucket: list non-empty
	cur    int64            // cursor bucket
	inRing int
}

// Len returns the number of queued events.
func (q *eventQueue) Len() int { return len(q.active) + q.inRing + len(q.far) }

// push queues ev by its fire time.
func (q *eventQueue) push(ev *event) {
	b := bucketOf(ev.at)
	switch {
	case b <= q.cur:
		q.active.push(ev, tierActive)
	case b < q.cur+ringSize:
		s := b & ringMask
		head := q.ring[s]
		ev.prev, ev.next = nil, head
		if head != nil {
			head.prev = ev
		} else {
			q.occ[s>>6] |= 1 << (s & 63)
		}
		q.ring[s] = ev
		ev.tier = tierRing
		q.inRing++
	default:
		q.far.push(ev, tierFar)
	}
}

// remove unlinks a queued event wherever it sits.
func (q *eventQueue) remove(ev *event) {
	switch ev.tier {
	case tierActive:
		q.active.remove(ev.index)
	case tierFar:
		q.far.remove(ev.index)
	case tierRing:
		if ev.prev != nil {
			ev.prev.next = ev.next
		} else {
			s := bucketOf(ev.at) & ringMask
			q.ring[s] = ev.next
			if ev.next == nil {
				q.occ[s>>6] &^= 1 << (s & 63)
			}
		}
		if ev.next != nil {
			ev.next.prev = ev.prev
		}
		ev.prev, ev.next = nil, nil
		q.inRing--
	}
	ev.tier = tierNone
}

// peek returns the earliest queued event without removing it, or nil. It
// may move the cursor forward, which changes where later events are queued
// but not the order they fire in.
func (q *eventQueue) peek() *event {
	if len(q.active) == 0 && !q.advance() {
		return nil
	}
	return q.active[0].ev
}

// pop removes and returns the earliest queued event, or nil.
func (q *eventQueue) pop() *event {
	if len(q.active) == 0 && !q.advance() {
		return nil
	}
	ev := q.active[0].ev
	q.active.remove(0)
	ev.tier = tierNone
	return ev
}

// advance moves the cursor to the earliest non-empty bucket and fills the
// empty active heap from it. It reports false when nothing is queued.
func (q *eventQueue) advance() bool {
	next, fromRing := int64(-1), false
	if q.inRing > 0 {
		next, fromRing = q.nextRingBucket(), true
	}
	if len(q.far) > 0 {
		if b := bucketOf(q.far[0].at); next < 0 || b < next {
			next, fromRing = b, false
		}
	}
	if next < 0 {
		return false
	}
	q.cur = next
	if fromRing {
		s := next & ringMask
		for ev := q.ring[s]; ev != nil; {
			nx := ev.next
			ev.prev, ev.next = nil, nil
			q.active.push(ev, tierActive)
			ev = nx
			q.inRing--
		}
		q.ring[s] = nil
		q.occ[s>>6] &^= 1 << (s & 63)
	}
	for len(q.far) > 0 && bucketOf(q.far[0].at) <= next {
		ev := q.far[0].ev
		q.far.remove(0)
		q.active.push(ev, tierActive)
	}
	return true
}

// nextRingBucket returns the earliest non-empty ring bucket after the
// cursor. The ring must hold at least one event.
func (q *eventQueue) nextRingBucket() int64 {
	start := (q.cur + 1) & ringMask
	w := start >> 6
	word := q.occ[w] &^ (1<<(start&63) - 1)
	for word == 0 {
		w = (w + 1) & (occWords - 1)
		word = q.occ[w]
	}
	s := w<<6 + int64(bits.TrailingZeros64(word))
	return q.cur + 1 + (s-start)&ringMask
}

// eventHeap is a binary min-heap of events. Each slot caches its event's
// fire time, the calendar's own primary key, so most comparisons never
// dereference an event; equal times fall through to eventLess.
type eventHeap []heapSlot

type heapSlot struct {
	at Time
	ev *event
}

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return eventLess(h[i].ev, h[j].ev)
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].ev.index = i
	h[j].ev.index = j
}

func (h *eventHeap) push(ev *event, t tier) {
	ev.tier = t
	ev.index = len(*h)
	*h = append(*h, heapSlot{at: ev.at, ev: ev})
	h.up(ev.index)
}

// remove deletes slot i, keeping the heap ordered.
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	old[n] = heapSlot{}
	*h = old[:n]
	if i != n {
		if !h.down(i) {
			h.up(i)
		}
	}
}

func (h eventHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

// down sifts slot i toward the leaves and reports whether it moved.
func (h eventHeap) down(i int) bool {
	i0, n := i, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h.swap(i, c)
		i = c
	}
	return i > i0
}
