package main

import (
	"errors"
	"sync"
	"testing"
	"time"

	"diversify/internal/telemetry"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// Below 20 samples a point with ten beyond it sits under the median.
	for _, n := range []int{0, 1, 10, 11, 19} {
		xs := make([]float64, n)
		if got := tailPercentile(xs); got.OK || got.N != n {
			t.Errorf("n=%d: got %+v, want no tail and N=%d", n, got, n)
		}
	}

	// 20 samples: the tenth smallest is p50 with ten beyond it.
	var xs []float64
	for v := 20; v >= 1; v-- {
		xs = append(xs, float64(v))
	}
	got := tailPercentile(xs)
	if !got.OK || got.Value != 10 || got.N != 20 || got.Pct != 50 {
		t.Errorf("n=20: got %+v, want value 10 at p50 with N=20", got)
	}

	// 1..100 in reverse: p90 is 90, with exactly 91..100 beyond it.
	xs = xs[:0]
	for v := 100; v >= 1; v-- {
		xs = append(xs, float64(v))
	}
	got = tailPercentile(xs)
	if !got.OK || got.Value != 90 || got.Pct != 90 || got.N != 100 {
		t.Errorf("n=100: got %+v, want value 90 at p90 with N=100", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("n=100: %d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	if xs[0] != 100 {
		t.Error("tailPercentile reordered its input")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 60}}, 80},
		{"overlap counted once", []span{{Start: 10, End: 20}, {Start: 15, End: 30}}, 80},
		{"nested", []span{{Start: 10, End: 40}, {Start: 20, End: 30}}, 70},
		{"clipped to parent", []span{{Start: -10, End: 10}, {Start: 90, End: 120}}, 80},
		{"outside parent", []span{{Start: 100, End: 150}}, 100},
		{"covers parent", []span{{Start: -5, End: 105}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
	if got := clipped(parent, span{Start: 90, End: 120}); got != 10 {
		t.Errorf("clipped: %d, want 10", got)
	}
}

func TestFailedFracCountsEveryFailureKind(t *testing.T) {
	outs := []outcome{
		{},
		{err: errors.New("boom")},
		{degraded: true},
		{quarantined: true},
		{checkFailed: true},
		{},
		{degraded: true, checkFailed: true}, // one call, counted once
		{},
	}
	failed, attempted, frac := failedFrac(outs)
	if failed != 5 || attempted != 8 || frac != 5.0/8 {
		t.Errorf("got %d/%d = %v, want 5/8", failed, attempted, frac)
	}
	if failed, attempted, frac := failedFrac(nil); failed != 0 || attempted != 0 || frac != 0 {
		t.Errorf("no calls: got %d/%d = %v, want 0/0 = 0", failed, attempted, frac)
	}
}

func TestCallSinkConcurrentEmit(t *testing.T) {
	tr := newTracer(time.Now())
	sink, end := tr.beginCall("run")
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				sink.Emit(telemetry.EvaluationBatch{Replications: 2, Duration: time.Microsecond})
				sink.Emit(telemetry.RoundCompleted{})
			}
		}()
	}
	wg.Wait()
	end()
	spans, calls := tr.snapshot()
	if len(spans) != 401 || len(calls) != 1 {
		t.Fatalf("got %d spans and %d calls, want 401 and 1", len(spans), len(calls))
	}
	if c := calls[0]; len(c.evalMS) != 400 || c.reps != 800 || c.rounds != 400 {
		t.Errorf("tally: %d evals, %d reps, %d rounds; want 400, 800, 400", len(c.evalMS), c.reps, c.rounds)
	}
	for _, s := range spans[1:] {
		if s.Parent != spans[0].ID || s.RunID != "run" {
			t.Fatalf("span %+v is not a child of the call span", s)
		}
	}
}
