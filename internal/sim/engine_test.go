package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*Nanosecond, func() { got = append(got, 3) })
	e.At(10*Nanosecond, func() { got = append(got, 1) })
	e.At(20*Nanosecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*Nanosecond {
		t.Fatalf("Now = %v, want 30ns", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.After(100*Nanosecond, func() {
		e.After(50*Nanosecond, func() { at = e.Now() })
	})
	e.Run()
	if at != 150*Nanosecond {
		t.Fatalf("nested After fired at %v, want 150ns", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	h := e.At(10*Nanosecond, func() { fired = true })
	h.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !h.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Zero Handle must be safe.
	var zero Handle
	zero.Cancel()
	if zero.Cancelled() {
		t.Fatal("zero handle reports cancelled")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{1 * Microsecond, 2 * Microsecond, 3 * Microsecond} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(2 * Microsecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events by 2us, want 2", len(fired))
	}
	if e.Now() != 2*Microsecond {
		t.Fatalf("Now = %v after RunUntil(2us)", e.Now())
	}
	e.RunUntil(10 * Microsecond)
	if len(fired) != 3 {
		t.Fatalf("fired %d events total, want 3", len(fired))
	}
	if e.Now() != 10*Microsecond {
		t.Fatalf("Now = %v, want clock advanced to horizon", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i)*Nanosecond, func() {
			n++
			if n == 2 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 2 {
		t.Fatalf("ran %d events after Stop, want 2", n)
	}
	e.Run() // resumes
	if n != 5 {
		t.Fatalf("ran %d events total after resume, want 5", n)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*Nanosecond, func() {})
	})
	e.Run()
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

func TestTickerPeriodic(t *testing.T) {
	e := NewEngine()
	var times []Time
	tk := NewTicker(e, 10*Microsecond, func(now Time) { times = append(times, now) })
	e.RunUntil(35 * Microsecond)
	tk.Stop()
	e.RunUntil(100 * Microsecond)
	if len(times) != 3 {
		t.Fatalf("got %d ticks, want 3: %v", len(times), times)
	}
	for i, at := range times {
		want := Time(i+1) * 10 * Microsecond
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
	if tk.Ticks() != 3 {
		t.Fatalf("Ticks = %d, want 3", tk.Ticks())
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = NewTicker(e, Microsecond, func(Time) {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	e.RunUntil(Millisecond)
	if n != 2 {
		t.Fatalf("ticker fired %d times after self-stop, want 2", n)
	}
}

func TestTransmitTime(t *testing.T) {
	// 1000 bytes at 10 Gbps = 800 ns.
	got := TransmitTime(1000, 10e9)
	if got != 800*Nanosecond {
		t.Fatalf("TransmitTime(1000, 10G) = %v, want 800ns", got)
	}
	// 1 byte at 100 Gbps = 80 ps exactly.
	if got := TransmitTime(1, 100e9); got != 80*Picosecond {
		t.Fatalf("TransmitTime(1, 100G) = %v, want 80ps", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{2 * Second, "2s"},
		{3 * Millisecond, "3ms"},
		{4 * Microsecond, "4us"},
		{5 * Nanosecond, "5ns"},
		{7 * Picosecond, "7ps"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	f := func(ms uint16) bool {
		d := Time(ms) * Millisecond
		return FromSeconds(d.Seconds()) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: with random schedule times, events always fire in nondecreasing
// time order and the engine clock never goes backwards.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(offsets []uint32) bool {
		e := NewEngine()
		var fired []Time
		for _, off := range offsets {
			at := Time(off % 1e6)
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestComparatorSingleEngineOrder pins the (at, seq) order: events at the
// same instant run in schedule order, whatever clock times they were
// scheduled at.
func TestComparatorSingleEngineOrder(t *testing.T) {
	eng := NewEngine()
	var order []string
	// Schedule the target instant from several earlier instants; within
	// each scheduling instant, schedule multiple events.
	for i := 0; i < 5; i++ {
		eng.At(Time(i)*Microsecond, func() {
			for k := 0; k < 3; k++ {
				tag := fmt.Sprintf("b%d_%d", i, k)
				eng.At(10*Microsecond, func() { order = append(order, tag) })
			}
		})
	}
	eng.RunUntil(20 * Microsecond)
	want := []string{
		"b0_0", "b0_1", "b0_2", "b1_0", "b1_1", "b1_2", "b2_0", "b2_1", "b2_2",
		"b3_0", "b3_1", "b3_2", "b4_0", "b4_1", "b4_2",
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("same-instant order changed: got %v", order)
	}
}
