package sim

import "testing"

// The event freelist must make steady-state scheduling allocation-free:
// after warmup, At/After + fire cycles reuse recycled event structs.
func TestScheduleFireZeroAllocs(t *testing.T) {
	e := NewEngine()
	n := 0
	fn := func() { n++ }
	// Warm the freelist and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.After(Time(i+1), fn)
	}
	e.Run()

	allocs := testing.AllocsPerRun(200, func() {
		e.After(1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocates %.1f per op, want 0", allocs)
	}
}

// AtArg with a pointer argument must not allocate either: the callback is a
// long-lived func value and pointers do not box when stored in an interface.
func TestScheduleArgZeroAllocs(t *testing.T) {
	e := NewEngine()
	type payload struct{ n int }
	p := &payload{}
	fn := func(arg any) { arg.(*payload).n++ }
	for i := 0; i < 64; i++ {
		e.AfterArg(Time(i+1), fn, p)
	}
	e.Run()

	allocs := testing.AllocsPerRun(200, func() {
		e.AfterArg(1, fn, p)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("AtArg schedule+fire allocates %.1f per op, want 0", allocs)
	}
	if p.n == 0 {
		t.Fatal("arg callback never ran")
	}
}

// Schedule+cancel churn (the DCQCN RTO re-arm pattern) must also run
// allocation-free once the freelist is warm.
func TestScheduleCancelZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Time(i+1), fn).Cancel()
	}
	allocs := testing.AllocsPerRun(200, func() {
		h := e.After(Millisecond, fn)
		h.Cancel()
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel allocates %.1f per op, want 0", allocs)
	}
}

// Ticker re-arms with a cached callback, so a running ticker costs zero
// allocations per tick.
func TestTickerZeroAllocsPerTick(t *testing.T) {
	e := NewEngine()
	n := 0
	NewTicker(e, Microsecond, func(Time) { n++ })
	e.RunUntil(100 * Microsecond) // warm freelist
	allocs := testing.AllocsPerRun(200, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("ticker tick allocates %.1f per op, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("ticker never ticked")
	}
}

// A re-arm that crosses the queue's tiers — a 1 ms timer lands in the far
// heap, a 1 µs one in the ring — must cancel allocation-free as well.
func TestScheduleCancelAcrossTiersZeroAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Millisecond, fn).Cancel()
		e.After(Microsecond, fn).Cancel()
	}
	allocs := testing.AllocsPerRun(200, func() {
		far := e.After(Millisecond, fn)
		near := e.After(Microsecond, fn)
		far.Cancel()
		near.Cancel()
	})
	if allocs != 0 {
		t.Fatalf("cross-tier schedule+cancel allocates %.1f per op, want 0", allocs)
	}
}

// A ticker whose period exceeds the ring span re-arms through the far heap
// every tick, still without allocating.
func TestFarTickerZeroAllocsPerTick(t *testing.T) {
	e := NewEngine()
	n := 0
	period := 3 * ringSpan
	NewTicker(e, period, func(Time) { n++ })
	e.RunUntil(8 * period) // warm freelist
	allocs := testing.AllocsPerRun(200, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("far ticker tick allocates %.1f per op, want 0", allocs)
	}
	if n < 200 {
		t.Fatalf("ticker ticked %d times, want >= 200", n)
	}
}
