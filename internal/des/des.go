// Package des implements the discrete-event simulation core that every
// time-driven model in the framework (SAN execution, SCADA testbed, worm
// propagation) runs on.
//
// A Sim owns a virtual clock and a pending-event queue. Events scheduled
// at the same instant fire in scheduling order (FIFO tie-breaking via a
// monotonically increasing sequence number), which keeps runs exactly
// reproducible for a given seed.
//
// The queue is a typed 4-ary min-heap of pointer-free entries
// {time, seq, arena index}: ordering reads only the entry, sifting moves
// 24-byte values the garbage collector never scans, and the event slot
// itself (callback, payload, cancellation flag) is touched once, when the
// entry is popped. (time, seq) is a total order, so the fire sequence
// depends on the scheduled events alone, not on the heap's shape.
// Cancellation is lazy: a cancelled slot stays queued and is skipped when
// it reaches the head.
//
// The package also provides Run, the one replication executor every
// Monte-Carlo fan-out in the framework goes through (Replicate, the
// campaign evaluator and the placement optimizer all sit on it). Its
// contract:
//
//   - Streams. Replication i runs on the stream rng.New(seeds[i]). Each
//     worker owns one *rng.Rand and reseeds it from seeds[i] before every
//     attempt, so an outcome depends on the seed vector alone, never on
//     the worker count or on which worker claims which replication.
//     Streams derives the seed vector Replicate uses: successive
//     SplitSeed draws of one root generator.
//   - Batching. Workers claim contiguous index ranges of
//     len(seeds)/(workers·4) replications (at least one) from a shared
//     atomic cursor: few enough claims that dispatch is negligible, enough
//     slack to balance replications of very different lengths.
//   - Cancellation. A worker checks the context before every claim; once
//     it is done (or another worker has failed) no further batch is
//     claimed, in-flight replications drain, and Run returns ctx.Err().
//   - Panics. A panicking replication is recovered and replayed on the
//     same stream after a 1 ms·2^k backoff, up to three attempts; the
//     body must treat any state it held when the panic struck as
//     suspect. When the attempts run out Run returns the lowest-indexed
//     *RepPanic, which matches ErrPanic under errors.Is.
//   - Ownership. The *rng.Rand a body receives belongs to its worker and
//     is reseeded for the next replication: a body must not keep it (or
//     anything that draws from it) after it returns.
package des

import (
	"errors"
	"fmt"
	"math"
)

// ErrStopped is returned by Sim.Run when the simulation was halted by Stop.
var ErrStopped = errors.New("des: simulation stopped")

// Payload is the small typed argument of a payload callback: a node (or
// other small integer) identifier plus one float parameter. Scheduling a
// shared method value with a Payload instead of a fresh closure removes
// the per-event closure allocation (and its captured variables) that
// dominated campaign allocation profiles.
type Payload struct {
	Node int32
	P    float64
}

// Event is one arena slot holding a scheduled callback. A fired or
// cancelled event is inert until Reset recycles its slot for the next
// epoch. Callers hold Handles, never *Events: the epoch tag is what lets
// Reset reuse slots while handles issued before the Reset stay inert.
type Event struct {
	time      float64
	epoch     uint64
	fn        func()
	pfn       func(Payload) // payload callback (fn and pfn are exclusive)
	parg      Payload
	cancelled bool
}

// cancel marks the slot inert. The callback is released immediately so a
// cancelled event pinned by the allocation arena does not keep its
// closure alive.
func (e *Event) cancel() {
	e.cancelled = true
	e.fn = nil
	e.pfn = nil
}

// Handle refers to one scheduled event; Schedule and friends return it
// and Cancel consumes it. Handles are small values, cheap to copy and
// store. The zero Handle is inert. A handle issued before the last
// Sim.Reset is stale — its slot may since have been recycled for a
// different event — and every method treats it as referring to a dead
// event, so forgotten handles from past replications cannot corrupt the
// current one.
type Handle struct {
	e     *Event
	epoch uint64
}

// live reports whether the handle still refers to the event it was
// issued for (the slot has not been recycled by a Reset).
func (h Handle) live() bool { return h.e != nil && h.e.epoch == h.epoch }

// Time returns the virtual time the event is (or was) scheduled for; a
// stale or zero handle returns 0.
func (h Handle) Time() float64 {
	if !h.live() {
		return 0
	}
	return h.e.time
}

// Cancel removes the event from the pending set. Cancelling an event
// that already fired, was already cancelled, or belongs to an epoch
// ended by Reset is a no-op.
func (h Handle) Cancel() {
	if h.live() {
		h.e.cancel()
	}
}

// Cancelled reports whether the event can no longer fire as scheduled:
// explicitly cancelled, or stale (issued before the last Reset). Fired
// events report false, matching the pre-epoch semantics.
func (h Handle) Cancelled() bool {
	if !h.live() {
		return true
	}
	return h.e.cancelled
}

// qent is one pending-queue entry: the ordering key and the arena index
// (block*eventArenaSize+slot) of the event it schedules. It holds no
// pointers, so sifting entries costs no GC write barriers.
type qent struct {
	time float64
	seq  uint64
	ev   int32
}

// before is the queue order: earlier time first, scheduling order
// among equal times.
func (a qent) before(b qent) bool {
	return a.time < b.time || a.time == b.time && a.seq < b.seq
}

// push inserts x into the 4-ary heap, moving the hole up from the tail.
func (s *Sim) push(x qent) {
	q := append(s.queue, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	s.queue = q
}

// pop removes and returns the head entry; the queue must be non-empty.
// The tail entry refills the hole left at the root, which moves down
// toward the earliest of its up to four children.
func (s *Sim) pop() qent {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	x := q[n]
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			m := first
			for j := first + 1; j < first+4 && j < n; j++ {
				if q[j].before(q[m]) {
					m = j
				}
			}
			if !q[m].before(x) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = x
	}
	s.queue = q
	return top
}

// Sim is a sequential discrete-event simulator. The zero value is ready to
// use; it is not safe for concurrent use.
type Sim struct {
	now     float64
	seq     uint64
	queue   []qent
	stopped bool
	fired   uint64
	// epoch counts Resets; handles record the epoch they were issued in
	// so handles from pre-Reset epochs stay inert when slots recycle.
	epoch uint64
	arena eventArena
}

// eventArenaSize is the Event allocation block; campaigns fire thousands
// of events, so batching removes ~all per-event allocations without
// holding meaningfully more memory for short simulations. A power of two,
// so an arena index splits into (block, slot) with a shift and a mask.
const eventArenaSize = 128

// eventArena batches Event allocations in fixed-size blocks. Blocks are
// never reallocated (pointers into them stay valid for the Sim's
// lifetime); Reset rewinds the cursor so the next epoch hands the same
// slots out again. Within one epoch every slot is handed out at most
// once, preserving handle semantics (a fired or cancelled event stays
// inert until the epoch ends). A steady-state Reset+run cycle therefore
// allocates nothing: growth happens only when an epoch schedules more
// events than any epoch before it.
type eventArena struct {
	blocks      [][]Event
	block, slot int
}

// next hands out the next slot and its arena index, growing by one block
// when the cursor runs past every existing block.
//
//diversify:hotpath steady-state Reset+run cycles must not allocate; only block growth may
func (a *eventArena) next() (*Event, int32) {
	if a.block == len(a.blocks) {
		a.blocks = append(a.blocks, make([]Event, eventArenaSize))
	}
	e := &a.blocks[a.block][a.slot]
	idx := int32(a.block*eventArenaSize + a.slot)
	a.slot++
	if a.slot == eventArenaSize {
		a.block++
		a.slot = 0
	}
	return e, idx
}

// at returns the slot with arena index idx.
func (a *eventArena) at(idx int32) *Event {
	return &a.blocks[uint32(idx)/eventArenaSize][uint32(idx)%eventArenaSize]
}

// rewind restarts the hand-out sequence at the first slot.
func (a *eventArena) rewind() { a.block, a.slot = 0, 0 }

// enqueue fills the next arena slot with ev (stamped with the current
// epoch), queues it at time ev.time and returns its handle.
//
//diversify:hotpath per-event allocation would dominate the Monte-Carlo profile
func (s *Sim) enqueue(ev Event) Handle {
	e, idx := s.arena.next()
	ev.epoch = s.epoch
	*e = ev
	s.push(qent{time: ev.time, seq: s.seq, ev: idx})
	s.seq++
	return Handle{e: e, epoch: s.epoch}
}

// NewSim returns a simulator with the clock at zero.
func NewSim() *Sim { return &Sim{} }

// Reset returns the simulator to its initial state — clock at zero, no
// pending events — so it can be reused for another run without
// reallocating. The epoch counter advances, so Handles issued before the
// Reset become inert; the pending queue's backing array and the
// allocation arena (whose slots are now recycled) are retained, making a
// steady-state Reset+run cycle free of des allocations. The callbacks of
// events still pending are released so recycled slots pin nothing.
func (s *Sim) Reset() {
	for _, q := range s.queue {
		e := s.arena.at(q.ev)
		e.fn = nil
		e.pfn = nil
	}
	s.queue = s.queue[:0]
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.stopped = false
	s.epoch++
	s.arena.rewind()
}

// Now returns the current virtual time.
func (s *Sim) Now() float64 { return s.now }

// FiredEvents returns how many events have executed so far.
func (s *Sim) FiredEvents() uint64 { return s.fired }

// Pending returns the number of events currently scheduled.
func (s *Sim) Pending() int {
	n := 0
	for _, q := range s.queue {
		if !s.arena.at(q.ev).cancelled {
			n++
		}
	}
	return n
}

// Schedule enqueues fn to run after delay units of virtual time and
// returns the event handle (usable to Cancel). It panics on negative or
// NaN delays — a scheduling bug, not a runtime condition.
func (s *Sim) Schedule(delay float64, fn func()) Handle {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: invalid delay %v", delay))
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt enqueues fn to run at absolute virtual time t (>= Now).
func (s *Sim) ScheduleAt(t float64, fn func()) Handle {
	if t < s.now || math.IsNaN(t) {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, s.now))
	}
	return s.enqueue(Event{time: t, fn: fn})
}

// SchedulePayload enqueues fn(arg) to run after delay units of virtual
// time. fn is typically a long-lived method value shared across many
// events and arg a small identifier, so — unlike Schedule with a fresh
// closure — the call captures nothing and allocates nothing beyond the
// arena slot.
func (s *Sim) SchedulePayload(delay float64, fn func(Payload), arg Payload) Handle {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("des: invalid delay %v", delay))
	}
	return s.enqueue(Event{time: s.now + delay, pfn: fn, parg: arg})
}

// Stop halts the current Run after the in-flight event returns.
func (s *Sim) Stop() { s.stopped = true }

// Step fires the single earliest pending event. It returns false when no
// events remain.
func (s *Sim) Step() bool {
	for len(s.queue) > 0 {
		if s.fireHead() {
			return true
		}
	}
	return false
}

// fireHead pops the head entry and fires its event, advancing the clock
// to the entry's time. A cancelled head is discarded and reports false.
func (s *Sim) fireHead() bool {
	q := s.pop()
	e := s.arena.at(q.ev)
	if e.cancelled {
		return false
	}
	s.now = q.time
	s.fired++
	fn, pfn := e.fn, e.pfn
	e.fn, e.pfn = nil, nil // release the callback; fired events are inert
	if pfn != nil {
		pfn(e.parg)
	} else {
		fn()
	}
	return true
}

// Run executes events in order until the clock would pass horizon, the
// event queue empties, or Stop is called. The clock is left at
// min(horizon, time of last event). It returns ErrStopped if halted by
// Stop, nil otherwise.
func (s *Sim) Run(horizon float64) error {
	if math.IsNaN(horizon) {
		return fmt.Errorf("des: NaN horizon: %w", ErrStopped)
	}
	s.stopped = false
	for len(s.queue) > 0 {
		if s.stopped {
			return ErrStopped
		}
		if s.peek() > horizon {
			s.now = horizon
			return nil
		}
		s.fireHead()
	}
	if s.now < horizon {
		s.now = horizon
	}
	return nil
}

// RunUntil executes events until pred() returns true (checked after every
// event), the horizon is reached, or the queue empties. It reports whether
// pred became true.
func (s *Sim) RunUntil(horizon float64, pred func() bool) (bool, error) {
	if pred() {
		return true, nil
	}
	s.stopped = false
	for len(s.queue) > 0 {
		if s.stopped {
			return false, ErrStopped
		}
		if s.peek() > horizon {
			s.now = horizon
			return false, nil
		}
		if s.fireHead() && pred() {
			return true, nil
		}
	}
	if s.now < horizon {
		s.now = horizon
	}
	return false, nil
}

// peek returns the head entry's time without touching its event; the
// queue must be non-empty. A cancelled head past the horizon ends a run
// exactly as a live one would: everything behind it is later still.
func (s *Sim) peek() float64 { return s.queue[0].time }

// Every schedules fn to run now+period, then every period thereafter, until
// the returned stop function is called. fn receives the firing time.
func (s *Sim) Every(period float64, fn func(t float64)) (stop func()) {
	if period <= 0 || math.IsNaN(period) {
		panic(fmt.Sprintf("des: invalid period %v", period))
	}
	stopped := false
	var tick func()
	var ev Handle
	tick = func() {
		if stopped {
			return
		}
		fn(s.now)
		if !stopped {
			ev = s.Schedule(period, tick)
		}
	}
	ev = s.Schedule(period, tick)
	return func() {
		stopped = true
		ev.Cancel()
	}
}
