package sim

// An event is a callback scheduled at a virtual time. seq breaks ties so that
// events scheduled first at the same instant run first (deterministic order).
//
// Event structs are pooled per engine: once an event fires or is cancelled it
// returns to the engine's freelist and is reused by a later At/AtArg. The gen
// counter makes stale Handles harmless — it is bumped every time the struct
// is taken from the freelist, so a Handle created for an earlier lifetime no
// longer matches and its Cancel/Cancelled degrade to no-ops.
type event struct {
	at        Time
	seq       uint64
	fn        func()    // one of fn / afn is set
	afn       func(any) // arg-carrying form: afn(arg), closure-free hot path
	arg       any
	gen       uint64
	cancelled bool

	// Queue links (queue.go): tier names the structure holding the event,
	// index is its slot in the active or far heap, and next/prev link it
	// into its ring bucket.
	tier       tier
	index      int
	next, prev *event
}

// Handle identifies a scheduled event so it can be cancelled. A Handle is
// only valid for the lifetime of the event it was created for: after the
// event fires or is cancelled, the engine may recycle the underlying struct,
// at which point the stale Handle's methods become no-ops.
type Handle struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing and removes it from the schedule
// immediately, releasing the event (and the closure it pins) for reuse.
// Cancelling an already-fired or already-cancelled event is a no-op, as is
// Cancel on a zero Handle.
func (h Handle) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.tier == tierNone {
		return
	}
	ev.cancelled = true
	h.eng.q.remove(ev)
	h.eng.release(ev)
}

// Cancelled reports whether Cancel has been called on the event. Once the
// engine recycles the event struct for a new schedule, a stale Handle
// reports false.
func (h Handle) Cancelled() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.cancelled
}

// eventLess is the engine's total event order: fire time, then schedule
// order. seq is unique per engine, so no two events compare equal. It is
// the only definition of the order: the queue's heaps compare with it.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; model-level parallelism belongs above the engine (e.g. one
// engine per independent replica, run on separate goroutines).
type Engine struct {
	now     Time
	q       eventQueue
	free    []*event // recycled event structs; steady state schedules allocation-free
	seq     uint64
	stopped bool
	fired   uint64
}

// NewEngine returns an engine with its clock at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events waiting to fire. Cancelled events are
// removed eagerly and never counted.
func (e *Engine) Pending() int { return e.q.Len() }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// alloc takes an event from the freelist, invalidating stale Handles via the
// generation bump, or heap-allocates the pool's next struct.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.gen++
		ev.cancelled = false
		return ev
	}
	return &event{}
}

// release returns an event to the freelist. The cancelled flag is kept so
// the Handle that cancelled it can still observe the outcome until the
// struct is reused; callback and arg are dropped so they do not pin memory.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

func (e *Engine) schedule(t Time, fn func(), afn func(any), arg any) Handle {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	ev.afn = afn
	ev.arg = arg
	e.seq++
	e.q.push(ev)
	return Handle{eng: e, ev: ev, gen: ev.gen}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug, and silently reordering time corrupts results.
func (e *Engine) At(t Time, fn func()) Handle {
	return e.schedule(t, fn, nil, nil)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Handle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.schedule(e.now+d, fn, nil, nil)
}

// AtArg schedules fn(arg) at absolute time t. Unlike At, the callback and
// its argument are stored separately, so hot paths can reuse one long-lived
// func value instead of allocating a fresh closure per schedule. Passing a
// pointer as arg does not allocate.
func (e *Engine) AtArg(t Time, fn func(any), arg any) Handle {
	return e.schedule(t, nil, fn, arg)
}

// AfterArg schedules fn(arg) to run d after the current time.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) Handle {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.schedule(e.now+d, nil, fn, arg)
}

// Step runs the earliest pending event and returns true, or returns false if
// no events remain.
func (e *Engine) Step() bool {
	ev := e.q.pop()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.fired++
	// Copy the callback and recycle the struct before running it, so
	// events scheduled by the callback can reuse it immediately.
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	e.release(ev)
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	return true
}

// RunUntil processes every event with timestamp <= t, then advances the
// clock to exactly t. Events scheduled by fired events are processed too,
// as long as they fall within the horizon.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped {
		if next := e.peek(); next == nil || next.at > t {
			break
		}
		e.Step()
	}
	if !e.stopped && t > e.now {
		e.now = t
	}
}

// Run processes events until none remain or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// Stop makes the current Run or RunUntil return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

// peek returns the earliest pending event without removing it, or nil.
// Cancel removes eagerly, so the event is live.
func (e *Engine) peek() *event { return e.q.peek() }
