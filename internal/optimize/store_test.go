package optimize

import (
	"context"
	"path/filepath"
	"testing"

	"diversify/internal/evalstore"
)

// Attaching the durable store must never change what a run computes —
// neither when filling it (first run) nor when warm-starting from it
// (second run): stored measurements are bit-identical to re-simulated
// ones, and Value/Cost are recomputed under the consuming run's own
// objective and cost model.
func TestStoreDoesNotPerturbResults(t *testing.T) {
	store := filepath.Join(t.TempDir(), "evals.store")
	o, _ := ByName("greedy")
	clean, err := Run(testProblem(51), o)
	if err != nil {
		t.Fatal(err)
	}
	filled, err := RunWith(context.Background(), testProblem(51), o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, filled) != resultJSON(t, clean) {
		t.Fatal("filling the store changed the run's result")
	}
	if filled.Stats.StorePuts == 0 || filled.Stats.StoreHits != 0 {
		t.Fatalf("first run: %d puts / %d hits, want puts > 0 and hits == 0", filled.Stats.StorePuts, filled.Stats.StoreHits)
	}
	warm, err := RunWith(context.Background(), testProblem(51), o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, warm) != resultJSON(t, clean) {
		t.Fatal("warm-started run diverged from the clean run")
	}
	// An identical re-run replays entirely from the store (the hit count
	// exceeds CacheMisses by the random comparison row, which is evaluated
	// outside the archive but is store-served too).
	if warm.Stats.StoreHits < warm.CacheMisses || warm.Stats.StorePuts != 0 {
		t.Fatalf("identical re-run: %d hits of %d evaluations, %d puts — want all hits, no puts",
			warm.Stats.StoreHits, warm.CacheMisses, warm.Stats.StorePuts)
	}
}

// The store's reason to exist: a re-optimization under a tweaked budget
// re-uses the measurements of every candidate both searches visit,
// skipping >= 90% of its re-evaluations — and still produces exactly
// what a cold run at the new budget would.
func TestStoreWarmStartAcrossBudgetTweak(t *testing.T) {
	store := filepath.Join(t.TempDir(), "evals.store")
	o, _ := ByName("greedy")
	fill := testProblem(53)
	fill.Budget = 22
	if _, err := RunWith(context.Background(), fill, o, RunOptions{StorePath: store}); err != nil {
		t.Fatal(err)
	}
	tweaked := testProblem(53)
	tweaked.Budget = 18
	cold, err := Run(tweaked, o)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunWith(context.Background(), tweaked, o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, warm) != resultJSON(t, cold) {
		t.Fatal("warm-started budget-tweaked run diverged from the cold run")
	}
	if warm.CacheMisses == 0 {
		t.Fatal("budget-tweaked run evaluated nothing")
	}
	hitRate := float64(warm.Stats.StoreHits) / float64(warm.CacheMisses)
	if hitRate < 0.9 {
		t.Fatalf("warm start skipped only %.0f%% of %d re-evaluations (want >= 90%%)",
			hitRate*100, warm.CacheMisses)
	}
	t.Logf("budget 22 -> 18 warm start: %d/%d evaluations served from the store (%.0f%%)",
		warm.Stats.StoreHits, warm.CacheMisses, hitRate*100)
}

// Changing the objective only remaps measurements to a new scalar, so a
// warm start across an objective tweak also re-uses the store — the
// measurements themselves are objective-blind.
func TestStoreWarmStartAcrossObjectiveTweak(t *testing.T) {
	store := filepath.Join(t.TempDir(), "evals.store")
	o, _ := ByName("greedy")
	fill := testProblem(55)
	if _, err := RunWith(context.Background(), fill, o, RunOptions{StorePath: store}); err != nil {
		t.Fatal(err)
	}
	tweaked := testProblem(55)
	tweaked.Objective = MaximizeTTSF
	cold, err := Run(tweaked, o)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunWith(context.Background(), tweaked, o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, warm) != resultJSON(t, cold) {
		t.Fatal("warm-started objective-tweaked run diverged from the cold run")
	}
	if warm.Stats.StoreHits == 0 {
		t.Fatal("objective-tweaked run got no store hits")
	}
}

// A store filled under a different evaluation spec (other seed → other
// replication streams) must contribute nothing: its measurements answer
// a different question.
func TestStoreIgnoresMismatchedSpec(t *testing.T) {
	store := filepath.Join(t.TempDir(), "evals.store")
	o, _ := ByName("greedy")
	if _, err := RunWith(context.Background(), testProblem(57), o, RunOptions{StorePath: store}); err != nil {
		t.Fatal(err)
	}
	other, err := RunWith(context.Background(), testProblem(58), o, RunOptions{StorePath: store})
	if err != nil {
		t.Fatal(err)
	}
	if other.Stats.StoreHits != 0 {
		t.Fatalf("run under a different seed served %d store hits", other.Stats.StoreHits)
	}
	if other.Stats.StorePuts == 0 {
		t.Fatal("run under a different seed stored nothing")
	}
}

// Slot 9 of a record is retired: logs written while it carried a
// separate rotation cost must decode to the same Score whatever the
// slot holds, and a fresh record round-trips through it.
func TestRetiredMeasurementSlotIgnored(t *testing.T) {
	m := evalstore.Measurements{0.5, 100, 0.25, 0.75, 12, 3, 40, 2, 1, 2}
	want := scoreFromMeasurements(m)
	m[9] = 7
	if got := scoreFromMeasurements(m); got != want {
		t.Fatalf("slot 9 changed the decoded score: %+v vs %+v", got, want)
	}
	if got := scoreFromMeasurements(measurementsOf(want)); got != want {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
}
