package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"diversify/internal/telemetry"
)

// tracer keeps a traced run's spans in memory. Spans come from two
// places: the optimizer's own progress events (evaluation batches,
// store serves and checkpoint writes, timed by the program and stamped
// on arrival) and the benchmark's timing of its calls and replays.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
	// calls holds the per-call event tallies, in call order; guarded by
	// mu.
	calls []*callTally
}

// callTally is what one traced optimize call's event stream reported.
type callTally struct {
	span     int // id of the call's span
	rounds   int
	evalMS   []float64 // durations of simulated (not store-served) batches
	reps     int
	served   int
	ckpts    int
	ckptMS   float64
	ckptB    int
	finished telemetry.RunFinished
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// add records a span and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span now; the returned func closes it.
func (t *tracer) begin(name, runID string, parent int) (int, func()) {
	id := t.add(span{Parent: parent, RunID: runID, Name: name, Start: t.now()})
	return id, func() {
		end := t.now()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// beginCall opens an optimize call's span and returns the progress sink
// to attach to it.
func (t *tracer) beginCall(runID string) (telemetry.Sink, func()) {
	id, end := t.begin("optimize.call", runID, 0)
	ct := &callTally{span: id}
	t.mu.Lock()
	t.calls = append(t.calls, ct)
	t.mu.Unlock()
	return &callSink{t: t, ct: ct, runID: runID}, end
}

// callSink turns one call's progress events into spans and tallies.
type callSink struct {
	t     *tracer
	ct    *callTally
	runID string
}

// Emit implements telemetry.Sink. Events carry durations measured by the
// program; the span ends when the event arrives.
func (s *callSink) Emit(e telemetry.Event) {
	now := s.t.now()
	switch e := e.(type) {
	case telemetry.EvaluationBatch:
		name := "optimize.eval"
		if e.FromStore {
			name = "optimize.store_serve"
		}
		s.t.add(span{Parent: s.ct.span, RunID: s.runID, Name: name, Start: now - int64(e.Duration), End: now})
		s.t.mu.Lock()
		if e.FromStore {
			s.ct.served++
		} else {
			s.ct.evalMS = append(s.ct.evalMS, ms(e.Duration))
			s.ct.reps += e.Replications
		}
		s.t.mu.Unlock()
	case telemetry.CheckpointWritten:
		s.t.add(span{Parent: s.ct.span, RunID: s.runID, Name: "optimize.checkpoint", Start: now - int64(e.Duration), End: now})
		s.t.mu.Lock()
		s.ct.ckpts++
		s.ct.ckptMS += ms(e.Duration)
		s.ct.ckptB += e.Bytes
		s.t.mu.Unlock()
	case telemetry.RoundCompleted:
		s.t.mu.Lock()
		s.ct.rounds++
		s.t.mu.Unlock()
	case telemetry.RunFinished:
		s.t.mu.Lock()
		s.ct.finished = e
		s.t.mu.Unlock()
	}
}

// snapshot returns copies of the spans and call tallies.
func (t *tracer) snapshot() ([]span, []callTally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := append([]span(nil), t.spans...)
	calls := make([]callTally, len(t.calls))
	for i, c := range t.calls {
		calls[i] = *c
	}
	return spans, calls
}

// writeJSON writes every span as one JSON document.
func (t *tracer) writeJSON(path string) error {
	spans, _ := t.snapshot()
	blob, err := json.MarshalIndent(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since benchmark start", spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// childrenOf indexes spans by their parent's id.
func childrenOf(spans []span) map[int][]span {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	return children
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name  string
	count int
	total float64 // seconds
	self  float64 // seconds
}

// layerTable aggregates spans by name with their self times, over the
// spans whose run id is in runs (all spans when runs is nil).
func layerTable(spans []span, runs map[string]bool) []layerRow {
	children := childrenOf(spans)
	rows := map[string]*layerRow{}
	var order []string
	for _, s := range spans {
		if runs != nil && !runs[s.RunID] {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
			order = append(order, s.Name)
		}
		r.count++
		r.total += float64(s.dur()) / 1e9
		r.self += float64(selfTime(s, children[s.ID])) / 1e9
	}
	sort.Strings(order)
	out := make([]layerRow, 0, len(order))
	for _, n := range order {
		out = append(out, *rows[n])
	}
	return out
}

func printLayerTable(rows []layerRow) {
	fmt.Printf("  %-24s %6s %12s %12s\n", "layer span", "count", "total_s", "self_s")
	for _, r := range rows {
		fmt.Printf("  %-24s %6d %12.6f %12.6f\n", r.name, r.count, r.total, r.self)
	}
}
