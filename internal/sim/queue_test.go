package sim

import (
	"fmt"
	"testing"

	"pet/internal/rng"
)

// ringSpan is the stretch of time the calendar ring covers.
const ringSpan = Time(ringSize) << bucketShift

// refQueue is the differential oracle: a plain slice of pending events whose
// minimum under eventLess is found by a linear scan.
type refQueue struct {
	live []*refEvent
}

type refEvent struct {
	key event // only the eventLess fields are set
	id  int
	h   Handle
}

func (r *refQueue) min() *refEvent {
	var best *refEvent
	for _, x := range r.live {
		if best == nil || eventLess(&x.key, &best.key) {
			best = x
		}
	}
	return best
}

func (r *refQueue) drop(x *refEvent) {
	for i, y := range r.live {
		if y == x {
			r.live = append(r.live[:i], r.live[i+1:]...)
			return
		}
	}
	panic("refQueue: dropping an event it does not hold")
}

// queueHarness drives an Engine and the oracle with the same random
// operations and fails on the first divergence.
type queueHarness struct {
	t     *testing.T
	e     *Engine
	r     *rng.Stream
	ref   refQueue
	seq   uint64
	ids   int
	stale []Handle // handles of fired or cancelled events
	fire  func(any)
	fired int
}

func newQueueHarness(t *testing.T, seed int64) *queueHarness {
	q := &queueHarness{t: t, e: NewEngine(), r: rng.New(seed)}
	q.fire = func(arg any) {
		x := arg.(*refEvent)
		want := q.ref.min()
		if want != x {
			q.t.Fatalf("fired event %d at %v, oracle wants %d at %v", x.id, q.e.Now(), want.id, want.key.at)
		}
		if q.e.Now() != x.key.at {
			q.t.Fatalf("event %d fired at %v, scheduled for %v", x.id, q.e.Now(), x.key.at)
		}
		q.ref.drop(x)
		q.stale = append(q.stale, x.h)
		q.fired++
		// Callbacks schedule and cancel too, including their own handle.
		switch q.r.Intn(6) {
		case 0, 1:
			q.schedule()
		case 2:
			q.schedule()
			q.schedule()
		case 3:
			q.cancel()
		case 4:
			x.h.Cancel() // the event already left the queue: a no-op
			if x.h.Cancelled() {
				q.t.Fatal("self-cancel marked a fired event cancelled")
			}
		}
		q.checkPending()
	}
	return q
}

// delay draws from the shapes the calendar treats differently.
func (q *queueHarness) delay() Time {
	switch q.r.Intn(10) {
	case 0:
		return 0 // same instant as the clock
	case 1:
		return Time(q.r.Intn(1 << bucketShift)) // within one bucket
	case 2:
		return ringSpan // exactly the ring span
	case 3:
		return ringSpan + Time(q.r.Intn(3)-1)<<bucketShift // one bucket either side
	case 4:
		return ringSpan - Time(q.r.Intn(1<<bucketShift)) // wraps onto slots behind the cursor
	case 5:
		return Millisecond + Time(q.r.Intn(int(Microsecond))) // far heap
	case 6:
		// Same instant as a pending event: the tie is broken by schedule order.
		if len(q.ref.live) > 0 {
			at := q.ref.live[q.r.Intn(len(q.ref.live))].key.at
			if at >= q.e.Now() {
				return at - q.e.Now()
			}
		}
		return Nanosecond
	default:
		return Time(q.r.Intn(int(ringSpan))) // anywhere in the ring
	}
}

func (q *queueHarness) schedule() {
	d := q.delay()
	x := &refEvent{id: q.ids}
	q.ids++
	x.key = event{at: q.e.Now() + d, seq: q.seq}
	q.seq++
	x.h = q.e.AfterArg(d, q.fire, x)
	q.ref.live = append(q.ref.live, x)
}

func (q *queueHarness) cancel() {
	if len(q.stale) > 0 && q.r.Intn(3) == 0 {
		h := q.stale[q.r.Intn(len(q.stale))]
		h.Cancel() // stale: fired, cancelled or recycled — a no-op
		return
	}
	if len(q.ref.live) == 0 {
		return
	}
	x := q.ref.live[q.r.Intn(len(q.ref.live))]
	x.h.Cancel()
	if !x.h.Cancelled() {
		q.t.Fatalf("Cancel of live event %d did not take", x.id)
	}
	q.ref.drop(x)
	q.stale = append(q.stale, x.h)
}

func (q *queueHarness) checkPending() {
	if got, want := q.e.Pending(), len(q.ref.live); got != want {
		q.t.Fatalf("Pending = %d, oracle holds %d", got, want)
	}
}

// TestQueueMatchesReference checks the calendar queue against a linear-scan
// oracle over random interleavings of schedule, Cancel (stale handles and
// cancels from inside callbacks included), Step and RunUntil, with delays
// covering same-instant ties, sub-bucket gaps, ring wrap-around, exactly
// the ring span and the far heap.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			q := newQueueHarness(t, seed)
			for op := 0; op < 4000; op++ {
				switch k := q.r.Intn(10); {
				case k < 4:
					q.schedule()
				case k < 5:
					q.cancel()
				case k < 9:
					before := q.fired
					if q.e.Step() != (before < q.fired) {
						t.Fatal("Step's result disagrees with whether an event fired")
					}
					if len(q.ref.live) > 0 && q.fired == before {
						t.Fatal("Step fired nothing with events pending")
					}
				default:
					// Peek past the horizon, then schedule behind the cursor.
					q.e.RunUntil(q.e.Now() + Time(q.r.Intn(int(2*ringSpan))))
					if m := q.ref.min(); m != nil && m.key.at <= q.e.Now() {
						t.Fatalf("RunUntil(%v) left event %d at %v", q.e.Now(), m.id, m.key.at)
					}
				}
				q.checkPending()
			}
			for q.e.Step() {
			}
			q.checkPending()
			if q.fired == 0 {
				t.Fatal("no event fired")
			}
		})
	}
}

// TestInjectBehindCursor covers scheduling behind a cursor that a peek has
// moved ahead: RunUntil peeks at the first event past its horizon, which
// moves the cursor to that event's bucket, and events then scheduled for
// earlier buckets, for the cursor's own instant and past the ring must all
// still fire in (at, seq) order.
func TestInjectBehindCursor(t *testing.T) {
	e := NewEngine()
	var order []string
	log := func(arg any) { order = append(order, arg.(string)) }
	e.AtArg(3*Microsecond, log, "old@3us")
	e.AtArg(3*Microsecond+ringSpan, log, "old@far")
	e.RunUntil(2 * Microsecond)
	if e.Now() != 2*Microsecond || len(order) != 0 {
		t.Fatalf("RunUntil(2us): Now = %v, fired %v", e.Now(), order)
	}
	if e.q.cur != bucketOf(3*Microsecond) {
		t.Fatalf("RunUntil's peek left the cursor at bucket %d, want %d", e.q.cur, bucketOf(3*Microsecond))
	}
	e.AtArg(3*Microsecond, log, "new@3us")
	e.AtArg(2*Microsecond+ringSpan, log, "new@far")
	e.AtArg(2500*Nanosecond, log, "new@2.5us")
	e.AtArg(2*Microsecond, log, "new@2us")
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6", e.Pending())
	}
	e.RunUntil(Second)
	want := []string{"new@2us", "new@2.5us", "old@3us", "new@3us", "new@far", "old@far"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after draining, want 0", e.Pending())
	}
}

// BenchmarkEngineStep measures one schedule + fire at a steady pending
// depth: every fired event reschedules itself 1 ns–1 µs ahead and re-arms
// one of depth/8 timers 1 ms out, the way a transport re-arms its RTO on
// every ACK.
func BenchmarkEngineStep(b *testing.B) {
	for _, depth := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("pending=%dk", depth/1000), func(b *testing.B) {
			e := NewEngine()
			r := rng.New(1)
			timers := make([]Handle, depth/8)
			next := 0
			expire := func(any) {}
			var fire func(any)
			fire = func(any) {
				e.AfterArg(Time(1+r.Intn(1000))*Nanosecond, fire, nil)
				timers[next].Cancel()
				timers[next] = e.AfterArg(Millisecond, expire, nil)
				next = (next + 1) % len(timers)
			}
			for i := 0; i < depth; i++ {
				e.AtArg(Time(1+r.Intn(1000))*Nanosecond, fire, nil)
			}
			for i := 0; i < depth; i++ { // warm the freelist and heaps
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
