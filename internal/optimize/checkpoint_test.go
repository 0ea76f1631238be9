package optimize

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"diversify/internal/evalstore"
	"diversify/internal/rotation"
	"diversify/internal/telemetry"
)

// resultJSON renders the byte-identity surface of a run.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// withRotations widens the test problem to the placement × schedule
// space, so the log's keys exercise the Rot dimension too.
func withRotations(p Problem) Problem {
	p.Rotations = []rotation.Spec{{Kind: rotation.Periodic, Period: 48, Batch: 2}}
	p.Budget = 40
	return p
}

// A run killed mid-search and run again against its checkpoint log must
// reproduce the uninterrupted run's Result byte for byte — for every
// strategy, and regardless of the worker counts on either side of the
// crash. This is the replay-based resume contract.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, name := range []string{"greedy", "anneal", "genetic", "portfolio", "pareto"} {
		name := name
		t.Run(name, func(t *testing.T) {
			o, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := Run(withRotations(testProblem(31)), o)
			if err != nil {
				t.Fatal(err)
			}
			want := resultJSON(t, clean)

			// "Crash" the run: cancel after a fixed number of replications,
			// leaving behind the log of every evaluation it finished.
			ck := filepath.Join(t.TempDir(), "search.ckpt")
			p := withRotations(testProblem(31))
			p.Workers = 4
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int64
			p.repHook = func(Candidate, int) {
				if calls.Add(1) == int64(20*p.Reps) {
					cancel()
				}
			}
			res, err := RunWith(ctx, p, o, RunOptions{CheckpointPath: ck})
			cancel()
			if err != nil {
				t.Fatalf("interrupted run failed outright: %v", err)
			}
			if res.Degraded == "" {
				t.Skip("search finished before the injected crash; nothing to resume")
			}
			if res.Stats.StorePuts == 0 {
				t.Fatal("interrupted run logged no evaluations")
			}

			for _, workers := range []int{1, 3, 7} {
				p := withRotations(testProblem(31))
				p.Workers = workers
				resumed, err := RunWith(context.Background(), p, o, RunOptions{CheckpointPath: ck})
				if err != nil {
					t.Fatalf("resume with %d workers: %v", workers, err)
				}
				if resumed.Stats.StoreHits == 0 {
					t.Fatalf("resume with %d workers was served nothing from the log: %+v", workers, resumed.Stats)
				}
				if got := resultJSON(t, resumed); got != want {
					t.Fatalf("resumed run (%d workers) diverged from the clean run:\n got %s\nwant %s", workers, got, want)
				}
			}
		})
	}
}

// A checkpointed run that completes normally must be byte-identical to a
// plain run (the log observes the search, never perturbs it), and a run
// against its finished log must replay without a single fresh
// simulation.
func TestCheckpointObservesWithoutPerturbing(t *testing.T) {
	o, _ := ByName("anneal")
	clean, err := Run(testProblem(33), o)
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "search.ckpt")
	chk, err := RunWith(context.Background(), testProblem(33), o, RunOptions{CheckpointPath: ck})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, chk) != resultJSON(t, clean) {
		t.Fatal("checkpointing changed the run's result")
	}
	if chk.Stats.Checkpoints == 0 || chk.Stats.CheckpointTime <= 0 {
		t.Fatalf("checkpointed run recorded no log syncs: %+v", chk.Stats)
	}
	resumed, err := RunWith(context.Background(), testProblem(33), o, RunOptions{CheckpointPath: ck})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, resumed) != resultJSON(t, clean) {
		t.Fatal("full-log resume diverged from the clean run")
	}
	// Every search evaluation, and the random comparison row (+1), is
	// served from the log.
	if resumed.Stats.StoreHits != clean.CacheMisses+1 || resumed.Stats.StorePuts != 0 {
		t.Fatalf("resume: %d log hits / %d puts, want the clean run's %d evaluations + 1 and no puts",
			resumed.Stats.StoreHits, resumed.Stats.StorePuts, clean.CacheMisses)
	}
}

// A missing checkpoint file is the first run of a crash-restart loop,
// not an error: the run proceeds fresh and still matches the plain run.
func TestResumeMissingFileRunsFresh(t *testing.T) {
	o, _ := ByName("greedy")
	clean, err := Run(testProblem(35), o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWith(context.Background(), testProblem(35), o,
		RunOptions{CheckpointPath: filepath.Join(t.TempDir(), "never-written.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StoreHits != 0 {
		t.Fatalf("fresh run served %d evaluations from a log that did not exist", res.Stats.StoreHits)
	}
	if resultJSON(t, res) != resultJSON(t, clean) {
		t.Fatal("fresh run with a missing checkpoint diverged from plain Run")
	}
}

// A log keys every measurement by (topology, candidate, evaluation
// spec), so a checkpoint written for another problem or strategy can
// serve only measurements identical by construction — it cannot change
// a result.
func TestCheckpointFromOtherProblemCannotChangeResult(t *testing.T) {
	o, _ := ByName("anneal")
	g, _ := ByName("greedy")
	ck := filepath.Join(t.TempDir(), "search.ckpt")
	clean37, err := RunWith(context.Background(), testProblem(37), o, RunOptions{CheckpointPath: ck})
	if err != nil {
		t.Fatal(err)
	}
	// Different seed → different evaluation streams → nothing served.
	clean38, err := Run(testProblem(38), o)
	if err != nil {
		t.Fatal(err)
	}
	other, err := RunWith(context.Background(), testProblem(38), o, RunOptions{CheckpointPath: ck})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, other) != resultJSON(t, clean38) || other.Stats.StoreHits != 0 {
		t.Fatalf("seed 38 on the seed-37 log: %d hits, identical=%v", other.Stats.StoreHits,
			resultJSON(t, other) == resultJSON(t, clean38))
	}
	// Different strategy → different trajectory over shared measurements.
	cleanGreedy, err := Run(testProblem(37), g)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := RunWith(context.Background(), testProblem(37), g, RunOptions{CheckpointPath: ck})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, greedy) != resultJSON(t, cleanGreedy) {
		t.Fatal("greedy on the anneal log diverged from the clean greedy run")
	}
	// Same problem, other worker count → served entirely from the log.
	p := testProblem(37)
	p.Workers = 2
	same, err := RunWith(context.Background(), p, o, RunOptions{CheckpointPath: ck})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, same) != resultJSON(t, clean37) || same.Stats.StorePuts != 0 {
		t.Fatalf("same problem under 2 workers: %d puts, identical=%v", same.Stats.StorePuts,
			resultJSON(t, same) == resultJSON(t, clean37))
	}
}

// A file that is not an evaluation log — bad magic, or a snapshot of the
// retired checkpoint format — is refused with evalstore.ErrStore. A torn
// or corrupt tail is truncated, re-simulated and reported, and the run
// still reproduces the clean result.
func TestResumeRejectsCorruptFile(t *testing.T) {
	o, _ := ByName("greedy")
	clean, err := Run(testProblem(39), o)
	if err != nil {
		t.Fatal(err)
	}
	ck := filepath.Join(t.TempDir(), "search.ckpt")
	if _, err := RunWith(context.Background(), testProblem(39), o, RunOptions{CheckpointPath: ck}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	mutated := func(f func([]byte) []byte) string {
		path := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := os.WriteFile(path, f(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for name, f := range map[string]func([]byte) []byte{
		"bad magic":          func(b []byte) []byte { b[0] = 'X'; return b },
		"retired DVOPCKP1":   func(b []byte) []byte { copy(b, "DVOPCKP1"); return b },
		"header only, short": func(b []byte) []byte { return b[:4] },
	} {
		_, err := RunWith(context.Background(), testProblem(39), o, RunOptions{CheckpointPath: mutated(f)})
		if !errors.Is(err, evalstore.ErrStore) {
			t.Fatalf("%s: err = %v, want evalstore.ErrStore", name, err)
		}
	}
	for name, f := range map[string]func([]byte) []byte{
		"flipped payload byte": func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"truncated":            func(b []byte) []byte { return b[:len(b)-7] },
		"truncated to header":  func(b []byte) []byte { return b[:10] },
	} {
		path := mutated(f)
		var rec telemetry.Recorder
		var stderr strings.Builder
		res, err := RunWith(context.Background(), testProblem(39), o, RunOptions{
			CheckpointPath: path, Sink: telemetry.Multi(&rec, telemetry.NewProgress(&stderr, false)),
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res.Telemetry = nil
		if resultJSON(t, res) != resultJSON(t, clean) {
			t.Fatalf("%s: run over the repaired log diverged from the clean run", name)
		}
		recovered := 0
		for _, ev := range rec.Events() {
			if ws, ok := ev.(telemetry.StoreWarmStart); ok && ws.Path == path {
				recovered = ws.Recovered
			}
		}
		if recovered == 0 {
			t.Fatalf("%s: no StoreWarmStart reported the truncation", name)
		}
		if want := fmt.Sprintf("optimize: evaluation log %s: dropped %d torn bytes\n", path, recovered); !strings.Contains(stderr.String(), want) {
			t.Fatalf("%s: stderr missing %q in:\n%s", name, want, stderr.String())
		}
	}
}

// The log syncs must stay within the 5% wall-clock overhead budget at
// the fixed cadence — cheap relative to even this test-sized Monte-Carlo
// evaluation load.
func TestCheckpointOverheadBudget(t *testing.T) {
	o, _ := ByName("anneal")
	p := testProblem(41)
	// Production-shaped load: the replication count is what makes an
	// evaluation expensive relative to a log fsync.
	p.Reps = 30
	p.Iterations = 150
	res, err := RunWith(context.Background(), p, o,
		RunOptions{CheckpointPath: filepath.Join(t.TempDir(), "search.ckpt")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Checkpoints == 0 {
		t.Fatal("no log syncs")
	}
	if limit := res.Stats.Elapsed / 20; res.Stats.CheckpointTime > limit {
		t.Fatalf("log syncs consumed %v of %v wall-clock (budget 5%% = %v)",
			res.Stats.CheckpointTime, res.Stats.Elapsed, limit)
	}
}

// One file named as both the checkpoint and the store — by the same
// string or through a symlink — is opened once: the run leaves a
// well-formed log that a later store-only run opens cleanly and is
// served every search evaluation from.
func TestCheckpointAndStoreSamePath(t *testing.T) {
	o, _ := ByName("greedy")
	for _, viaLink := range []bool{false, true} {
		dir := t.TempDir()
		store := filepath.Join(dir, "same.log")
		ck := store
		if viaLink {
			ck = filepath.Join(dir, "link.log")
			if err := os.Symlink(store, ck); err != nil {
				t.Skipf("symlinks unavailable: %v", err)
			}
		}
		both, err := RunWith(context.Background(), testProblem(47), o, RunOptions{CheckpointPath: ck, StorePath: store})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := RunWith(context.Background(), testProblem(47), o, RunOptions{StorePath: store})
		if err != nil {
			t.Fatalf("link=%v: store-only run over the shared log: %v", viaLink, err)
		}
		if resultJSON(t, warm) != resultJSON(t, both) {
			t.Fatalf("link=%v: store-only run diverged from the run that wrote the log", viaLink)
		}
		if warm.Stats.StoreHits < warm.CacheMisses || warm.Stats.StorePuts != 0 {
			t.Fatalf("link=%v: %d hits of %d evaluations, %d puts — want every evaluation served",
				viaLink, warm.Stats.StoreHits, warm.CacheMisses, warm.Stats.StorePuts)
		}
	}
}

// A failed append to an evaluation log fails the Score call instead of
// silently detaching the log.
func TestLogPutFailureFailsScore(t *testing.T) {
	p := testProblem(49)
	p.normalize()
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	ev, err := newEvaluator(&p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := evalstore.Open(filepath.Join(t.TempDir(), "closed.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ev.logs = []*evalstore.Store{st}
	if _, err := ev.Score(p.baseCand()); err == nil {
		t.Fatal("Score succeeded although the evaluation log rejected the measurement")
	}
}
