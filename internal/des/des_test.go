package des

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"diversify/internal/rng"
)

func TestEventOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 10 {
		t.Fatalf("clock = %v, want horizon 10", s.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := NewSim()
	var order []string
	s.Schedule(1, func() { order = append(order, "a") })
	s.Schedule(1, func() { order = append(order, "b") })
	s.Schedule(1, func() { order = append(order, "c") })
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("simultaneous events not FIFO: %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim()
	var times []float64
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(1, func() { times = append(times, s.Now()) })
	})
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("nested schedule times: %v", times)
	}
}

func TestCancel(t *testing.T) {
	s := NewSim()
	fired := false
	ev := s.Schedule(1, func() { fired = true })
	ev.Cancel()
	if !ev.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.FiredEvents() != 0 {
		t.Fatalf("FiredEvents = %d, want 0", s.FiredEvents())
	}
}

func TestHorizonStopsBeforeEvent(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(10, func() { fired = true })
	if err := s.Run(5); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if s.Now() != 5 {
		t.Fatalf("clock = %v, want 5", s.Now())
	}
	// Resuming past the event must fire it at its original time.
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event did not fire after extending horizon")
	}
}

func TestStop(t *testing.T) {
	s := NewSim()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	err := s.Run(100)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewSim()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), func() { count++ })
	}
	ok, err := s.RunUntil(100, func() bool { return count >= 4 })
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if count != 4 || s.Now() != 4 {
		t.Fatalf("count=%d now=%v", count, s.Now())
	}
	// Predicate never satisfied: runs to horizon.
	ok, err = s.RunUntil(6, func() bool { return false })
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if s.Now() != 6 {
		t.Fatalf("now=%v, want 6", s.Now())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	s := NewSim()
	s.Schedule(5, func() {})
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.ScheduleAt(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewSim().Schedule(-1, func() {})
}

func TestEvery(t *testing.T) {
	s := NewSim()
	var ticks []float64
	stop := s.Every(2, func(now float64) {
		ticks = append(ticks, now)
		if len(ticks) == 3 {
			// stop is captured below; cancel via closure variable.
		}
	})
	s.Schedule(7, func() { stop() })
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 4, 6}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestEveryStopInsideCallback(t *testing.T) {
	s := NewSim()
	n := 0
	var stop func()
	stop = s.Every(1, func(float64) {
		n++
		if n == 2 {
			stop()
		}
	})
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

// pending counts the uncancelled entries of s's event queue.
func pending(s *Sim) int {
	n := 0
	for _, q := range s.queue {
		if !s.arena.at(q.ev).cancelled {
			n++
		}
	}
	return n
}

func TestPendingCount(t *testing.T) {
	s := NewSim()
	e1 := s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	if got := pending(s); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	e1.Cancel()
	if got := pending(s); got != 1 {
		t.Fatalf("pending after cancel = %d, want 1", got)
	}
}

func TestManyEventsThroughput(t *testing.T) {
	s := NewSim()
	r := rng.New(1)
	const n = 20000
	for i := 0; i < n; i++ {
		s.Schedule(r.Float64()*1000, func() {})
	}
	if err := s.Run(2000); err != nil {
		t.Fatal(err)
	}
	if s.FiredEvents() != n {
		t.Fatalf("fired %d of %d", s.FiredEvents(), n)
	}
}

func TestReplicateDeterministicAcrossWorkers(t *testing.T) {
	body := func(rep int, r *rng.Rand) (float64, error) {
		sum := 0.0
		for i := 0; i < 100; i++ {
			sum += r.Float64()
		}
		return sum, nil
	}
	one := mustReplicate(t, 50, 1, 42, body)
	four := mustReplicate(t, 50, 4, 42, body)
	sixteen := mustReplicate(t, 50, 16, 42, body)
	for i := range one {
		if one[i] != four[i] || one[i] != sixteen[i] {
			t.Fatalf("replication %d differs across worker counts: %v %v %v",
				i, one[i], four[i], sixteen[i])
		}
	}
}

func TestReplicateStreamsIndependent(t *testing.T) {
	out := mustReplicate(t, 20, 4, 7, func(rep int, r *rng.Rand) (float64, error) { return r.Float64(), nil })
	seen := map[float64]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("duplicate first draw %v across replications", v)
		}
		seen[v] = true
	}
}

func TestReplicateZero(t *testing.T) {
	out, err := Replicate(0, 4, 1, func(int, *rng.Rand) (int, error) { return 1, nil })
	if out != nil || err != nil {
		t.Fatalf("Replicate(0) = %v, %v; want nil, nil", out, err)
	}
}

func mustReplicate[T any](t *testing.T, n, workers int, seed uint64, body func(int, *rng.Rand) (T, error)) []T {
	t.Helper()
	out, err := Replicate(n, workers, seed, body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Property: for random schedules, events always fire in nondecreasing time
// order and the clock never goes backwards.
func TestQuickMonotoneClock(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := rng.New(seed)
		s := NewSim()
		last := math.Inf(-1)
		ok := true
		for i := 0; i < n; i++ {
			s.Schedule(r.Float64()*100, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			})
		}
		if err := s.Run(1000); err != nil {
			return false
		}
		return ok && s.FiredEvents() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSim()
		for j := 0; j < 1000; j++ {
			s.Schedule(r.Float64()*100, func() {})
		}
		if err := s.Run(200); err != nil {
			b.Fatal(err)
		}
	}
}

// SchedulePayload must interleave with closure events in FIFO-per-time
// order and deliver the scheduled argument.
func TestSchedulePayload(t *testing.T) {
	s := NewSim()
	var order []int32
	record := func(p Payload) { order = append(order, p.Node) }
	s.SchedulePayload(2, record, Payload{Node: 2, P: 0.5})
	s.Schedule(1, func() { order = append(order, 1) })
	s.SchedulePayload(2, record, Payload{Node: 3})
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// A cancelled payload event must not fire and must release its callback.
func TestSchedulePayloadCancel(t *testing.T) {
	s := NewSim()
	fired := false
	ev := s.SchedulePayload(1, func(Payload) { fired = true }, Payload{})
	ev.Cancel()
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled payload event fired")
	}
}

// Reset must make a reused simulator behave exactly like a fresh one.
func TestSimReset(t *testing.T) {
	run := func(s *Sim) []float64 {
		var times []float64
		s.Schedule(1, func() {
			times = append(times, s.Now())
			s.Schedule(2, func() { times = append(times, s.Now()) })
		})
		s.SchedulePayload(5, func(Payload) { times = append(times, s.Now()) }, Payload{})
		s.Schedule(100, func() { times = append(times, s.Now()) }) // beyond horizon
		if err := s.Run(10); err != nil {
			t.Fatal(err)
		}
		return times
	}
	s := NewSim()
	first := run(s)
	s.Reset()
	if s.Now() != 0 || pending(s) != 0 || s.FiredEvents() != 0 {
		t.Fatalf("Reset left state: now=%v pending=%d fired=%d", s.Now(), pending(s), s.FiredEvents())
	}
	second := run(s)
	fresh := run(NewSim())
	if len(first) != len(fresh) || len(second) != len(fresh) {
		t.Fatalf("lengths differ: first=%v second=%v fresh=%v", first, second, fresh)
	}
	for i := range fresh {
		if first[i] != fresh[i] || second[i] != fresh[i] {
			t.Fatalf("run traces differ: first=%v second=%v fresh=%v", first, second, fresh)
		}
	}
}

// A handle issued before a Reset must stay inert: its slot is recycled
// for the next epoch, so cancelling through the stale handle must not
// touch the slot's new occupant.
func TestStaleHandleIsInert(t *testing.T) {
	s := NewSim()
	stale := s.Schedule(1, func() {})
	s.Reset()
	fired := false
	fresh := s.Schedule(1, func() { fired = true })
	if stale.Cancelled() != true {
		t.Fatal("pre-Reset handle should report Cancelled (inert)")
	}
	stale.Cancel() // must not cancel the recycled slot's new event
	if fresh.Cancelled() {
		t.Fatal("cancelling a stale handle cancelled the new epoch's event")
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("new epoch's event did not fire")
	}
	// The zero Handle is inert too.
	var zero Handle
	zero.Cancel()
	if !zero.Cancelled() {
		t.Fatal("zero Handle should report Cancelled")
	}
}

// Handles remain first-class within their own epoch even after slots
// from earlier epochs were recycled.
func TestHandleCancelWithinEpochAfterReset(t *testing.T) {
	s := NewSim()
	s.Schedule(1, func() {})
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	fired := false
	h := s.Schedule(1, func() { fired = true })
	h.Cancel()
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !h.Cancelled() {
		t.Fatal("handle should report Cancelled")
	}
}

// Steady-state Reset+run cycles must recycle every arena slot: after a
// warm-up epoch sized like the steady state, further epochs allocate
// nothing in the des layer.
func TestResetRunCycleZeroAllocs(t *testing.T) {
	s := NewSim()
	var sink int
	count := func(Payload) { sink++ }
	epoch := func() {
		s.Reset()
		// Span several arena blocks to exercise the block cursor.
		for i := 0; i < 3*eventArenaSize; i++ {
			s.SchedulePayload(float64(i%7), count, Payload{Node: int32(i)})
		}
		if err := s.Run(100); err != nil {
			t.Fatal(err)
		}
	}
	epoch() // warm-up: grows the arena and the pending queue
	allocs := testing.AllocsPerRun(10, epoch)
	if allocs != 0 {
		t.Fatalf("steady-state Reset+run cycle allocated %.1f times per epoch, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("events did not fire")
	}
}

// TestQueueOrderMatchesReferenceSort drives the queue with random
// workloads — many tied times, events scheduled and cancelled from
// inside callbacks, closure and payload events mixed, and a Reset while
// events are still pending at the start of every trial — and checks the
// fire order against the specification: exactly the live events up to
// the horizon fire, in ascending (time, scheduling sequence) order.
func TestQueueOrderMatchesReferenceSort(t *testing.T) {
	type ev struct {
		time             float64
		fired, cancelled bool
		h                Handle
	}
	r := rng.New(11)
	s := NewSim()
	for trial := 0; trial < 300; trial++ {
		s.Reset() // the previous trial usually left events pending
		var evs []*ev
		var order []int
		var schedule func(delay float64)
		fire := func(id int) {
			evs[id].fired = true
			order = append(order, id)
			if r.Bool(0.3) {
				schedule(float64(r.Intn(4)) / 2)
			}
			if r.Bool(0.2) {
				victim := evs[r.Intn(len(evs))]
				if !victim.fired {
					victim.cancelled = true
				}
				victim.h.Cancel()
			}
		}
		onPayload := func(p Payload) { fire(int(p.Node)) }
		// The sequence number of an event is its index in evs: Reset
		// restarts it, and every Schedule call takes the next one.
		schedule = func(delay float64) {
			id := len(evs)
			e := &ev{time: s.Now() + delay}
			evs = append(evs, e)
			if id%2 == 0 {
				e.h = s.Schedule(delay, func() { fire(id) })
			} else {
				e.h = s.SchedulePayload(delay, onPayload, Payload{Node: int32(id)})
			}
		}
		for n := 1 + r.Intn(80); n > 0; n-- {
			schedule(float64(r.Intn(8)) / 2)
			if r.Bool(0.1) {
				e := evs[len(evs)-1]
				e.cancelled = true
				e.h.Cancel()
			}
		}
		horizon := float64(r.Intn(10)) / 2
		if err := s.Run(horizon); err != nil {
			t.Fatal(err)
		}

		var want []int
		live := 0
		for id, e := range evs {
			switch {
			case e.cancelled:
			case e.time <= horizon:
				want = append(want, id)
			default:
				live++
			}
		}
		slices.SortFunc(want, func(a, b int) int {
			if c := cmp.Compare(evs[a].time, evs[b].time); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		if !slices.Equal(order, want) {
			t.Fatalf("trial %d: fire order %v, want %v", trial, order, want)
		}
		if got := pending(s); got != live {
			t.Fatalf("trial %d: pending = %d, want %d", trial, got, live)
		}
		if got := s.FiredEvents(); got != uint64(len(want)) {
			t.Fatalf("trial %d: FiredEvents = %d, want %d", trial, got, len(want))
		}
	}
}

// BenchmarkQueueCampaignDepth measures one schedule+fire cycle at the
// queue depth a saturated grid:200 replication runs at (about 200
// pending events): every fired event reschedules itself a jittered
// period later, as a campaign's per-node propagation and beacon loops
// do, so the depth stays constant. The Sim is Reset every 3,000 events,
// about one 720 h replication, so the arena recycles as it does under
// the replication executor.
func BenchmarkQueueCampaignDepth(b *testing.B) {
	const depth, perRep = 200, 3000
	s := NewSim()
	r := rng.New(1)
	var tick func(Payload)
	tick = func(p Payload) { s.SchedulePayload(6*(0.75+0.5*r.Float64()), tick, p) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%perRep == 0 {
			s.Reset()
			for n := 0; n < depth; n++ {
				s.SchedulePayload(r.Float64(), tick, Payload{Node: int32(n)})
			}
		}
		s.Step()
	}
}
