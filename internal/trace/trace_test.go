package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"diversify/internal/rng"
)

func TestSampledEdges(t *testing.T) {
	if Sampled(12345, 0) || Sampled(12345, -1) {
		t.Error("rate <= 0 must sample nothing")
	}
	if !Sampled(12345, 1) || !Sampled(12345, 1.5) {
		t.Error("rate >= 1 must sample everything")
	}
	// NaN rate: both comparisons are false, so nothing samples.
	if Sampled(12345, nan()) {
		t.Error("NaN rate sampled")
	}
}

func nan() float64 { v := 0.0; return v / v }

// TestSampledDeterministicFraction checks the two load-bearing
// properties: the decision is a pure function of the digest, and the
// sampled fraction tracks the rate.
func TestSampledDeterministicFraction(t *testing.T) {
	root := rng.New(1)
	digests := make([]uint64, 4000)
	for i := range digests {
		digests[i] = root.Split().Digest()
	}
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		n := 0
		for _, d := range digests {
			first := Sampled(d, rate)
			if first != Sampled(d, rate) {
				t.Fatal("Sampled is not a pure function")
			}
			if first {
				n++
			}
		}
		got := float64(n) / float64(len(digests))
		if got < rate-0.05 || got > rate+0.05 {
			t.Errorf("rate %.1f sampled fraction %.3f", rate, got)
		}
	}
	// Monotone: every replication sampled at rate r is sampled at r' > r.
	for _, d := range digests[:500] {
		if Sampled(d, 0.2) && !Sampled(d, 0.7) {
			t.Fatal("sampling is not monotone in the rate")
		}
	}
}

func TestTracerCapResetSnapshot(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Emit(Record{T: float64(i), Kind: KindSeed, Node: int32(i), Parent: -1})
	}
	if len(tr.Records()) != 3 || tr.Dropped() != 2 {
		t.Fatalf("cap: %d records, %d dropped", len(tr.Records()), tr.Dropped())
	}
	snap := tr.Snapshot()
	tr.Reset()
	if len(tr.Records()) != 0 || tr.Dropped() != 0 {
		t.Fatal("Reset did not clear")
	}
	if len(snap) != 3 || snap[2].T != 2 {
		t.Fatalf("snapshot not detached: %+v", snap)
	}
	// Unlimited tracer never drops.
	un := NewTracer(0)
	for i := 0; i < 100; i++ {
		un.Emit(Record{Kind: KindBeacon})
	}
	if un.Dropped() != 0 || len(un.Records()) != 100 {
		t.Fatal("unlimited tracer dropped records")
	}
	if NewTracer(0).Snapshot() != nil {
		t.Fatal("empty snapshot must be nil")
	}
}

func TestKindAndCauseNames(t *testing.T) {
	for k := KindSeed; k <= KindReinfect; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Error("out-of-range kinds must render unknown")
	}
	b, err := json.Marshal(KindFirewall)
	if err != nil || string(b) != `"firewall_blocked"` {
		t.Errorf("kind JSON = %s, %v", b, err)
	}
	for d, want := range map[float64]string{CauseManifest: "manifest", CauseBeacon: "beacon", CauseExfil: "exfil", 9: "unknown"} {
		if got := CauseName(d); got != want {
			t.Errorf("CauseName(%v) = %q, want %q", d, got, want)
		}
	}
}

// synthetic builds a two-replication trace set: rep 0 walks
// seed(0)→infect(0)→infect(1 from 0), gets blocked twice at node 2, is
// detected twice; rep 1 re-walks the same chain once, rotates node 0
// (evicting) and re-infects it.
func synthetic() []Trace {
	return []Trace{
		{Rep: 0, Records: []Record{
			{T: 1, Kind: KindSeed, Node: 0, Parent: -1},
			{T: 2, Kind: KindInfected, Node: 0, Parent: -1},
			{T: 3, Kind: KindBlocked, Node: 2, Parent: 0, Variant: "hardened-rtos", Detail: 0.3},
			{T: 4, Kind: KindInfected, Node: 1, Parent: 0},
			{T: 5, Kind: KindFirewall, Node: 2, Parent: 1, Variant: "fw-dpi"},
			{T: 6, Kind: KindDetect, Node: 1, Detail: CauseBeacon},
			{T: 7, Kind: KindDetect, Node: 1, Detail: CauseBeacon},
		}},
		{Rep: 3, Dropped: 2, Records: []Record{
			{T: 1, Kind: KindSeed, Node: 0, Parent: -1},
			{T: 2, Kind: KindInfected, Node: 0, Parent: -1},
			{T: 3, Kind: KindInfected, Node: 1, Parent: 0},
			{T: 8, Kind: KindRotTick, Node: -1, Parent: -1},
			{T: 8, Kind: KindRotate, Node: 0, Detail: 1},
			{T: 9, Kind: KindRotate, Node: 2, Detail: 0},
			{T: 10, Kind: KindReinfect, Node: 0},
			{T: 11, Kind: KindDetect, Node: 0, Detail: CauseManifest},
		}},
	}
}

func TestExplainAggregation(t *testing.T) {
	names := map[int32]string{0: "pc", 1: "hmi", 2: "plc"}
	ex := Explain(synthetic(), ExplainOpts{
		Candidate: "best", Rotation: "adaptive:24x2", Replications: 8,
		NodeName: func(id int32) string { return names[id] },
	})
	if ex.Sampled != 2 || ex.Replications != 8 || ex.Records != 15 || ex.Dropped != 2 {
		t.Fatalf("header: %+v", ex)
	}
	// Chains: "pc" completed twice (reps 0 and 3), "pc → hmi" twice.
	wantPaths := map[string][2]int{"pc": {2, 2}, "pc → hmi": {2, 2}}
	if len(ex.Paths) != len(wantPaths) {
		t.Fatalf("paths: %+v", ex.Paths)
	}
	for _, p := range ex.Paths {
		w, ok := wantPaths[p.Path]
		if !ok || p.Count != w[0] || p.Reps != w[1] {
			t.Errorf("path %+v, want %v", p, w)
		}
	}
	// Choke points: node block and firewall block are distinct rows.
	if len(ex.ChokePoints) != 2 {
		t.Fatalf("choke points: %+v", ex.ChokePoints)
	}
	for _, c := range ex.ChokePoints {
		if c.Node != "plc" || c.Blocked != 1 {
			t.Errorf("choke %+v", c)
		}
	}
	if ex.ChokePoints[0].Firewall == ex.ChokePoints[1].Firewall {
		t.Error("firewall and node blocks must stay separate rows")
	}
	// Detection: both reps detected; first times 6 and 11.
	d := ex.Detection
	if d.Detected != 2 || d.Events != 3 || len(d.First) != 2 || d.First[0] != 6 || d.First[1] != 11 || d.MeanFirst != 8.5 {
		t.Fatalf("detection: %+v", d)
	}
	if len(d.Causes) != 2 || d.Causes[0].Cause != "beacon" || d.Causes[0].Count != 2 {
		t.Fatalf("causes: %+v", d.Causes)
	}
	// Rotation churn: 1 tick, 2 rotations (1 evicting), 1 reinfection.
	rc := ex.RotationChurn
	if rc.Ticks != 1 || rc.Rotations != 2 || rc.Evictions != 1 || rc.Reinfections != 1 || rc.MeanEviction != 8 {
		t.Fatalf("churn: %+v", rc)
	}
	if len(rc.Chronology) != 3 || rc.Chronology[0].Kind != "evict" || rc.Chronology[2].Kind != "reinfect" {
		t.Fatalf("chronology: %+v", rc.Chronology)
	}
}

// TestExplainDeterministic asserts the byte-identity contract: same
// traces in, same JSON bytes out, across repeated aggregations.
func TestExplainDeterministic(t *testing.T) {
	opts := ExplainOpts{Candidate: "best", Replications: 8}
	first, err := json.Marshal(Explain(synthetic(), opts))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := json.Marshal(Explain(synthetic(), opts))
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("explanation bytes diverged on run %d", i)
		}
	}
}

func TestExplainCapsAndDefaults(t *testing.T) {
	// 40 distinct single-node chains → default TopPaths keeps 10.
	var tr Trace
	for i := int32(0); i < 40; i++ {
		tr.Records = append(tr.Records,
			Record{T: float64(i), Kind: KindSeed, Node: i, Parent: -1},
			Record{T: float64(i), Kind: KindInfected, Node: i, Parent: -1},
			Record{T: float64(i), Kind: KindBlocked, Node: i, Variant: "v"},
			Record{T: float64(i), Kind: KindRotate, Node: i, Detail: 1},
			Record{T: float64(i), Kind: KindReinfect, Node: i},
		)
	}
	ex := Explain([]Trace{tr}, ExplainOpts{Replications: 1})
	if len(ex.Paths) != 10 || ex.MorePaths != 30 {
		t.Fatalf("path cap: %d shown, %d more", len(ex.Paths), ex.MorePaths)
	}
	if len(ex.ChokePoints) != 24 || ex.MoreChokePoints != 16 {
		t.Fatalf("choke cap: %d shown, %d more", len(ex.ChokePoints), ex.MoreChokePoints)
	}
	if len(ex.RotationChurn.Chronology) != 64 || ex.RotationChurn.Truncated != 16 {
		t.Fatalf("chronology cap: %d shown, %d truncated", len(ex.RotationChurn.Chronology), ex.RotationChurn.Truncated)
	}
	// Default node naming.
	if !strings.HasPrefix(ex.Paths[0].Path, "node") {
		t.Fatalf("default NodeName: %q", ex.Paths[0].Path)
	}
}

// TestExplainCycleGuard feeds a parent cycle (A infected from B, B
// re-infected from A after rotation) and checks the walk terminates.
func TestExplainCycleGuard(t *testing.T) {
	tr := Trace{Records: []Record{
		{T: 1, Kind: KindInfected, Node: 0, Parent: 1},
		{T: 2, Kind: KindInfected, Node: 1, Parent: 0},
		{T: 3, Kind: KindInfected, Node: 0, Parent: 1},
	}}
	ex := Explain([]Trace{tr}, ExplainOpts{Replications: 1})
	if len(ex.Paths) == 0 {
		t.Fatal("cycle produced no paths")
	}
	for _, p := range ex.Paths {
		if strings.Count(p.Path, "→") > maxPathDepth {
			t.Fatalf("unbounded chain: %q", p.Path)
		}
	}
}

func TestEmptyTraces(t *testing.T) {
	ex := Explain(nil, ExplainOpts{Candidate: "baseline", Replications: 4})
	if ex.Sampled != 0 || ex.Records != 0 || len(ex.Paths) != 0 {
		t.Fatalf("empty explain: %+v", ex)
	}
	if ex.Detection.Detected != 0 || ex.RotationChurn.Rotations != 0 {
		t.Fatal("empty explain has activity")
	}
}
