package diversify

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"diversify/internal/exploits"
)

func TestNewStuxnetStudyValidation(t *testing.T) {
	if _, err := NewStuxnetStudy(StuxnetStudyConfig{Reps: 0}); err == nil {
		t.Fatal("zero reps accepted")
	}
	if _, err := NewStuxnetStudy(StuxnetStudyConfig{Reps: 5}); err == nil {
		t.Fatal("factorless study accepted")
	}
	// Single-level factors are omitted, so this is still factorless.
	if _, err := NewStuxnetStudy(StuxnetStudyConfig{Reps: 5, OSLevels: []string{"winxp-sp3"}}); err == nil {
		t.Fatal("single-level factor accepted")
	}
}

func TestStuxnetStudyEndToEnd(t *testing.T) {
	study, err := NewStuxnetStudy(StuxnetStudyConfig{
		OSLevels:  []string{"winxp-sp3", "win7"},
		PLCLevels: []string{"s7-315", "modicon-m340"},
		Reps:      10,
		Seed:      42,
		Workers:   0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if study.Design.NumRuns() != 4 {
		t.Fatalf("runs = %d, want 4", study.Design.NumRuns())
	}
	results, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	assessment, err := results.Assess([]Indicator{IndicatorSuccess, IndicatorTTA}, AnovaOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(assessment.Ranking) != 2 {
		t.Fatalf("ranking = %+v", assessment.Ranking)
	}
	for _, ci := range assessment.Ranking {
		if ci.Eta2 < 0 || ci.Eta2 > 1 {
			t.Fatalf("eta2 out of range: %+v", ci)
		}
	}
}

func TestRunScopePlacement(t *testing.T) {
	cells, err := RunScopePlacement([]int{0, 2}, 30, 3, 720)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 { // 2 counts × 3 strategies
		t.Fatalf("cells = %d", len(cells))
	}
	// Find baseline (k=0) and strategic k=2.
	var base, strategic2 PlacementResult
	for _, c := range cells {
		if c.Resilient == 0 && c.Strategy.String() == "strategic" {
			base = c
		}
		if c.Resilient == 2 && c.Strategy.String() == "strategic" {
			strategic2 = c
		}
	}
	if strategic2.PSuccess >= base.PSuccess {
		t.Fatalf("strategic hardening did not lower PSA: %v vs %v",
			strategic2.PSuccess, base.PSuccess)
	}
	// Mean TTA is either NaN (no successes) or positive.
	for _, c := range cells {
		if !math.IsNaN(c.MeanTTA) && c.MeanTTA <= 0 {
			t.Fatalf("bad MeanTTA: %+v", c)
		}
	}
}

func TestThreatProfiles(t *testing.T) {
	profiles := ThreatProfiles()
	for _, name := range []string{"stuxnet", "duqu", "flame"} {
		p, ok := profiles[name]
		if !ok {
			t.Fatalf("missing profile %q", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("profile %q invalid: %v", name, err)
		}
	}
}

// Zero means "default"; anything else invalid is an error instead of
// being silently replaced by the default.
func TestOptimizeRejectsInvalidInput(t *testing.T) {
	valid := OptimizeConfig{
		Topology: "powergrid", Strategy: "greedy",
		Classes: []string{"OS"}, Budget: 12,
		Reps: 2, HorizonHours: 24, Seed: 3, Iterations: 1,
	}
	for name, mutate := range map[string]func(*OptimizeConfig){
		"negative reps":          func(c *OptimizeConfig) { c.Reps = -3 },
		"negative horizon":       func(c *OptimizeConfig) { c.HorizonHours = -1 },
		"NaN horizon":            func(c *OptimizeConfig) { c.HorizonHours = math.NaN() },
		"infinite horizon":       func(c *OptimizeConfig) { c.HorizonHours = math.Inf(1) },
		"negative workers":       func(c *OptimizeConfig) { c.Workers = -2 },
		"negative population":    func(c *OptimizeConfig) { c.Population = -1 },
		"negative platform cost": func(c *OptimizeConfig) { c.PlatformCost = -3 },
		"NaN node cost":          func(c *OptimizeConfig) { c.NodeCost = math.NaN() },
		"more regions than subs": func(c *OptimizeConfig) { c.Topology = "grid:3:9" },
	} {
		cfg := valid
		mutate(&cfg)
		if _, err := Optimize(cfg); err == nil {
			t.Errorf("%s: accepted %+v", name, cfg)
		}
	}
	if _, err := BuildTopology("grid:9:3"); err != nil {
		t.Errorf("grid:9:3 rejected: %v", err)
	}
	if _, err := Optimize(valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestOptimizeFacade(t *testing.T) {
	res, err := Optimize(OptimizeConfig{
		Topology: "powergrid", Strategy: "greedy",
		Classes: []string{"OS"}, Budget: 12,
		Reps: 8, HorizonHours: 168, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Value > res.Baseline.Value {
		t.Fatalf("best %.4f worse than baseline %.4f", res.Best.Value, res.Baseline.Value)
	}
	if res.Best.Cost > 12 {
		t.Fatalf("best cost %.1f over budget", res.Best.Cost)
	}
	if len(res.Pareto) == 0 {
		t.Fatal("empty pareto front")
	}
	for _, bad := range []OptimizeConfig{
		{Topology: "mesh"},
		{Threat: "mirai"},
		{Strategy: "hillclimb"},
		{Classes: []string{"GPU"}},
		{Objective: "entropy"},
		{}, // zero budget: the whole search would be a no-op
	} {
		if _, err := Optimize(bad); err == nil {
			t.Fatalf("config %+v: expected error", bad)
		}
	}
}

// Any selector either fails to build or yields a topology whose
// components all resolve in the catalog and whose build is
// reproducible (two builds share a fingerprint).
func FuzzBuildTopology(f *testing.F) {
	for _, sel := range []string{
		"", "tiered", "powergrid", "grid:40", "grid:60", "grid:9:3", "grid:3:9",
		"grid:", "grid:0", "grid:-5", "grid:abc", "grid:10:0", "grid:10:x",
	} {
		f.Add(sel)
	}
	cat := exploits.StuxnetCatalog()
	f.Fuzz(func(t *testing.T, sel string) {
		if rest, ok := strings.CutPrefix(sel, "grid:"); ok {
			subs, _, _ := strings.Cut(rest, ":")
			if n, err := strconv.Atoi(subs); err == nil && n > 300 {
				t.Skip("large grids cost seconds per build")
			}
		}
		topo, err := BuildTopology(sel)
		if err != nil {
			return
		}
		if err := topo.ValidateComponents(cat); err != nil {
			t.Fatalf("%q: %v", sel, err)
		}
		again, err := BuildTopology(sel)
		if err != nil || again.Fingerprint() != topo.Fingerprint() {
			t.Fatalf("%q: rebuild differs (%v)", sel, err)
		}
	})
}
