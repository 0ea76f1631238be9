package telemetry

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeSemantics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("diversify_rounds_total", "rounds")
	for range 5 {
		c.Inc()
	}
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if reg.Counter("diversify_rounds_total", "") != c {
		t.Fatalf("re-registration must return the same counter")
	}
	g := reg.Gauge("diversify_best_value", "best")
	g.Set(0.25)
	g.Set(-3.5)
	if got := g.Value(); got != -3.5 {
		t.Fatalf("gauge = %v, want -3.5", got)
	}
	if reg.Gauge("diversify_best_value", "") != g {
		t.Fatalf("re-registration must return the same gauge")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 56.05; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Cumulative: ≤0.1 → 1, ≤1 → 3, ≤10 → 4; the 50 lands only in +Inf.
	want := []uint64{1, 3, 4}
	got := h.Snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	for strategy, rounds := range map[string]int{"greedy": 7, "pareto": 3} {
		c := reg.Counter(`diversify_rounds_total{strategy="`+strategy+`"}`, "completed rounds")
		for range rounds {
			c.Inc()
		}
	}
	reg.Gauge("diversify_best_value", "best objective value").Set(0.125)
	h := reg.Histogram("diversify_eval_latency_seconds", "eval latency", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP diversify_rounds_total completed rounds\n",
		"# TYPE diversify_rounds_total counter\n",
		`diversify_rounds_total{strategy="greedy"} 7` + "\n",
		`diversify_rounds_total{strategy="pareto"} 3` + "\n",
		"# TYPE diversify_best_value gauge\n",
		"diversify_best_value 0.125\n",
		"# TYPE diversify_eval_latency_seconds histogram\n",
		`diversify_eval_latency_seconds_bucket{le="0.01"} 1` + "\n",
		`diversify_eval_latency_seconds_bucket{le="0.1"} 1` + "\n",
		`diversify_eval_latency_seconds_bucket{le="+Inf"} 2` + "\n",
		"diversify_eval_latency_seconds_sum 0.505\n",
		"diversify_eval_latency_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
	// One TYPE header per family even with two labeled series.
	if n := strings.Count(out, "# TYPE diversify_rounds_total"); n != 1 {
		t.Errorf("family header written %d times, want 1", n)
	}
	// Unlabeled histograms must not emit empty label braces.
	if strings.Contains(out, "{}") {
		t.Errorf("empty label braces in exposition:\n%s", out)
	}
	// Output is sorted by series name for stable scrapes.
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != out+out {
		t.Errorf("exposition not stable across writes")
	}
}

// Histogram edge cases: a never-observed histogram still exposes a full
// well-formed family (all-zero buckets, zero sum/count), the +Inf
// cumulative count always equals the observation count, and boundary
// values land in their own bucket (le is ≤, not <).
func TestHistogramEdgeCases(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("diversify_empty_seconds", "never observed", []float64{0.1, 1})
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`diversify_empty_seconds_bucket{le="0.1"} 0` + "\n",
		`diversify_empty_seconds_bucket{le="1"} 0` + "\n",
		`diversify_empty_seconds_bucket{le="+Inf"} 0` + "\n",
		"diversify_empty_seconds_sum 0\n",
		"diversify_empty_seconds_count 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("empty histogram exposition missing %q:\n%s", want, out)
		}
	}

	h := newHistogram([]float64{1, 10})
	// A boundary observation (exactly 1) is ≤ 1; +Inf-only observations
	// (including actual +Inf) still count.
	for _, v := range []float64{1, 10, 100, math.Inf(1)} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if want := []uint64{1, 2}; snap[0] != want[0] || snap[1] != want[1] {
		t.Fatalf("cumulative buckets = %v, want %v", snap, want)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4 (the +Inf bucket is implicit and must equal count)", h.Count())
	}
}

func TestLabeledHistogramComposesLe(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram(`diversify_round_duration_seconds{strategy="greedy"}`, "round duration", []float64{1}).Observe(0.5)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`diversify_round_duration_seconds_bucket{strategy="greedy",le="1"} 1`,
		`diversify_round_duration_seconds_sum{strategy="greedy"} 0.5`,
		`diversify_round_duration_seconds_count{strategy="greedy"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("diversify_rounds_total", "rounds").Inc()
	rr := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "diversify_rounds_total 1") {
		t.Fatalf("body missing metric:\n%s", rr.Body.String())
	}
}

// Concurrent updates from many goroutines racing a scrape: run under
// -race this is the registry's thread-safety contract.
func TestRegistryConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("diversify_eval_batches_total", "batches")
			h := reg.Histogram("diversify_eval_latency_seconds", "latency", EvalLatencyBuckets)
			g := reg.Gauge("diversify_incumbent_value", "incumbent")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%10) / 1000)
				g.Set(float64(i))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := reg.Counter("diversify_eval_batches_total", "").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := reg.Histogram("diversify_eval_latency_seconds", "", EvalLatencyBuckets).Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}
