package optimize

import (
	"context"
	"path/filepath"
	"strconv"
	"testing"
)

// BenchmarkOptimizeCheckpointed is BenchmarkOptimizeGreedy with a fresh
// checkpoint log attached — the two together put a number on the
// end-to-end overhead of crash safety. Each iteration gets a new file:
// a reused one would serve the whole search from the log.
func BenchmarkOptimizeCheckpointed(b *testing.B) {
	o, err := ByName("greedy")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, strconv.Itoa(i))
		if _, err := RunWith(context.Background(), benchProblem(), o, RunOptions{CheckpointPath: path}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeWarmStore measures a fully warm-started greedy run:
// every simulation is served from the durable evaluation store, so this
// bounds the cost of a re-optimization after a knob tweak.
func BenchmarkOptimizeWarmStore(b *testing.B) {
	o, err := ByName("greedy")
	if err != nil {
		b.Fatal(err)
	}
	store := filepath.Join(b.TempDir(), "evals.store")
	if _, err := RunWith(context.Background(), benchProblem(), o, RunOptions{StorePath: store}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunWith(context.Background(), benchProblem(), o, RunOptions{StorePath: store}); err != nil {
			b.Fatal(err)
		}
	}
}
