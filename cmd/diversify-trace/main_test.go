package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"diversify/internal/trace"
)

// TestDumpJSONL checks that dump mode emits one valid JSON object per
// record with the resolved node names and stable enum tags.
func TestDumpJSONL(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mode", "dump", "-topo", "tiered", "-reps", "4", "-seed", "7", "-horizon", "240"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) < 10 {
		t.Fatalf("dump produced %d lines, want a real event stream", len(lines))
	}
	kinds := map[string]bool{}
	for i, line := range lines {
		var rec struct {
			Rep  int     `json:"rep"`
			T    float64 `json:"t"`
			Kind string  `json:"kind"`
			Node string  `json:"node"`
			ID   *int32  `json:"id"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d: not JSON: %v\n%s", i, err, line)
		}
		if rec.Kind == "" || rec.Node == "" || rec.ID == nil {
			t.Fatalf("line %d: missing kind/node/id: %s", i, line)
		}
		if rec.T < 0 {
			t.Fatalf("line %d: negative time: %s", i, line)
		}
		kinds[rec.Kind] = true
	}
	for _, want := range []string{"seed", "attempt", "blocked"} {
		if !kinds[want] {
			t.Errorf("dump stream never emitted kind %q (saw %v)", want, kinds)
		}
	}
}

// TestDumpWorkerInvariant asserts the headline determinism claim: the
// dump byte stream is identical for every worker count.
func TestDumpWorkerInvariant(t *testing.T) {
	dump := func(workers string) string {
		var out bytes.Buffer
		args := []string{"-mode", "dump", "-topo", "tiered", "-reps", "6", "-seed", "3",
			"-horizon", "240", "-sample", "0.7", "-workers", workers}
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	serial := dump("1")
	if parallel := dump("4"); parallel != serial {
		t.Fatal("dump output differs between -workers 1 and -workers 4")
	}
}

// TestSummaryJSON checks that summary -json round-trips as a
// trace.Explanation with the aggregation populated.
func TestSummaryJSON(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mode", "summary", "-topo", "tiered", "-reps", "6", "-seed", "7",
		"-horizon", "240", "-rotate", "adaptive:24x2", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var ex trace.Explanation
	if err := json.Unmarshal(out.Bytes(), &ex); err != nil {
		t.Fatalf("summary -json is not an Explanation: %v", err)
	}
	if ex.Sampled != 6 || ex.Replications != 6 {
		t.Fatalf("sampled %d/%d, want 6/6", ex.Sampled, ex.Replications)
	}
	if ex.Records == 0 || len(ex.Paths) == 0 {
		t.Fatalf("empty aggregation: %+v", ex)
	}
	if ex.RotationChurn.Ticks == 0 {
		t.Fatal("rotated summary reported no rotation ticks")
	}
}

// TestDiffExplainsMovingTarget runs the diff mode end to end on a small
// grid and asserts it actually explains the moving-target mechanism:
// choke-point attribution ("blocked") and the rotation eviction
// chronology are both present.
func TestDiffExplainsMovingTarget(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-mode", "diff", "-topo", "grid:60", "-budget", "30", "-reps", "8",
		"-seed", "7", "-horizon", "240"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"static", "rotated", "blocked", "eviction", "rotation churn"} {
		if !strings.Contains(text, want) {
			t.Errorf("diff output missing %q:\n%s", want, text)
		}
	}
}

func TestUnknownModeAndBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-mode", "nonsense"}, &out); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-mode", "dump", "-sample", "2"}, &out); err == nil {
		t.Error("sample 2 accepted")
	}
	if err := run([]string{"-mode", "summary", "-rotate", "hourly:4"}, &out); err == nil {
		t.Error("bad rotation selector accepted")
	}
}

// Negative counts and windows are errors in every mode, not defaults.
func TestNegativeFlagsRejected(t *testing.T) {
	for _, mode := range []string{"dump", "summary", "diff"} {
		for _, flags := range [][]string{
			{"-reps", "-3"}, {"-horizon", "-1"}, {"-horizon", "NaN"}, {"-workers", "-2"},
			{"-limit", "-1"}, {"-top-paths", "-1"},
		} {
			var out bytes.Buffer
			if err := run(append([]string{"-mode", mode}, flags...), &out); err == nil {
				t.Errorf("-mode %s %v accepted", mode, flags)
			}
		}
	}
}
