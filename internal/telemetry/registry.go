package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a dependency-free metrics registry: counters, gauges and
// fixed-bucket histograms, all lock-free on the update path and safe to
// snapshot concurrently (a /metrics scrape never blocks a worker).
// Metric names follow Prometheus conventions; a name may carry baked-in
// labels ("diversify_rounds_total{strategy=\"greedy\"}") — the
// exposition writer groups such series under one TYPE/HELP header.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter   //diversify:guardedby mu
	gauges     map[string]*Gauge     //diversify:guardedby mu
	histograms map[string]*Histogram //diversify:guardedby mu
	help       map[string]string     //diversify:guardedby mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		help:       make(map[string]string),
	}
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, stored as IEEE bits so
// updates stay atomic without a lock.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into a fixed cumulative bucket layout.
// Buckets are upper bounds in seconds; an implicit +Inf bucket catches
// the rest. Observations are lock-free: one atomic add on the bucket,
// one on the count, one CAS loop on the float sum.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// EvalLatencyBuckets spans the evaluation spectrum: a memoized hit
// (~400 ns) through a grid-scale simulated batch (tens of ms).
var EvalLatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 5,
}

// RoundDurationBuckets spans search rounds: sub-millisecond cached
// rounds through minute-scale exhaustive grid rounds.
var RoundDurationBuckets = []float64{
	1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 5, 10, 30, 60, 120,
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds))}
}

// Observe records one observation (in the bucket unit, seconds for the
// stock layouts).
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns the cumulative bucket counts aligned with Bounds().
func (h *Histogram) Snapshot() []uint64 {
	out := make([]uint64, len(h.buckets))
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	r.setHelp(name, help)
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.setHelp(name, help)
	return g
}

// Histogram returns (registering on first use) the named histogram with
// the given bucket bounds. Bounds are fixed at first registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := newHistogram(bounds)
	r.histograms[name] = h
	r.setHelp(name, help)
	return h
}

// setHelp records help text under the base name (labels stripped), so
// labeled series of one family share a header. Callers hold r.mu.
func (r *Registry) setHelp(name, help string) {
	base := baseName(name)
	//diversify:allow-unguarded callers hold r.mu (every call site is inside a Lock/defer Unlock window)
	if help != "" && r.help[base] == "" {
		//diversify:allow-unguarded callers hold r.mu (every call site is inside a Lock/defer Unlock window)
		r.help[base] = help
	}
}

func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus writes every registered metric in Prometheus text
// exposition format 0.0.4, sorted by name for stable scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	type series struct {
		name string
		kind string
		c    *Counter
		g    *Gauge
		h    *Histogram
	}
	var all []series
	for n, c := range r.counters {
		all = append(all, series{name: n, kind: "counter", c: c})
	}
	for n, g := range r.gauges {
		all = append(all, series{name: n, kind: "gauge", g: g})
	}
	for n, h := range r.histograms {
		all = append(all, series{name: n, kind: "histogram", h: h})
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	headered := make(map[string]bool)
	for _, s := range all {
		base := baseName(s.name)
		if !headered[base] {
			headered[base] = true
			if h := help[base]; h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, h); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, s.kind); err != nil {
				return err
			}
		}
		var err error
		switch s.kind {
		case "counter":
			_, err = fmt.Fprintf(w, "%s %d\n", s.name, s.c.Value())
		case "gauge":
			_, err = fmt.Fprintf(w, "%s %v\n", s.name, s.g.Value())
		case "histogram":
			err = writeHistogram(w, s.name, s.h)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, h *Histogram) error {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base = name[:i]
		// "…{a="b"}" → `a="b",` so le composes with the baked labels.
		labels = name[i+1:len(name)-1] + ","
	}
	sumLabels := ""
	if labels != "" {
		sumLabels = "{" + strings.TrimSuffix(labels, ",") + "}"
	}
	cum := h.Snapshot()
	for i, b := range h.Bounds() {
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%v\"} %d\n", base, labels, b, cum[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, h.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %v\n", base, sumLabels, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, sumLabels, h.Count())
	return err
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — the /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
