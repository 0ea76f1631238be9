package des

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diversify/internal/rng"
)

// ErrPanic marks a replication that panicked on every attempt; the
// *RepPanic Run returns matches it under errors.Is.
var ErrPanic = errors.New("replication panicked")

// RepPanic reports the lowest-indexed replication whose attempts all
// panicked: which worker ran the last attempt, how many attempts were
// made and the last recovered panic value.
type RepPanic struct {
	Worker, Rep, Attempts int
	Cause                 any
}

func (p *RepPanic) Error() string {
	return fmt.Sprintf("des: replication %d panicked %d times: %v", p.Rep, p.Attempts, p.Cause)
}

// Unwrap makes errors.Is(err, ErrPanic) hold.
func (p *RepPanic) Unwrap() error { return ErrPanic }

// Panic policy: a panicking replication is replayed on the same stream
// after retryBackoff·2^k, at most maxAttempts times in all.
const (
	maxAttempts  = 3
	retryBackoff = time.Millisecond
)

// Workers returns how many goroutines Run uses for n replications when
// asked for workers (<= 0 selects GOMAXPROCS; never more than n), so
// callers can size per-worker state to match.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// Streams returns the n stream seeds Replicate derives from seed:
// successive SplitSeed draws of rng.New(seed), so New(Streams(s, n)[i])
// is the i-th Split of that root.
func Streams(seed uint64, n int) []uint64 {
	root := rng.New(seed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = root.SplitSeed()
	}
	return seeds
}

// Run executes body once per replication over Workers(len(seeds),
// workers) goroutines under the contract in the package comment: body
// gets its worker index (for per-worker state), the replication index
// and its worker's generator, freshly reseeded from seeds[rep]. It
// returns how many panicked attempts were replayed and the first
// failure: ctx.Err() if the context ended, else the lowest-indexed
// replication's error or *RepPanic. That index is deterministic for
// deterministic bodies: the cursor hands out indices in order, so every
// replication below a failing one has been claimed and runs.
func Run(ctx context.Context, seeds []uint64, workers int, body func(w, rep int, r *rng.Rand) error) (int, error) {
	n := len(seeds)
	if n == 0 {
		return 0, ctx.Err()
	}
	workers = Workers(n, workers)
	var (
		cursor  atomic.Int64
		failed  atomic.Bool
		retried atomic.Int64
		wg      sync.WaitGroup
	)
	// fails[w] is worker w's failure (a worker stops at its first), at
	// replication failRep[w].
	fails := make([]error, workers)
	failRep := make([]int, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			r := rng.New(0)
			for !failed.Load() && ctx.Err() == nil {
				rep := int(cursor.Add(1)) - 1
				if rep >= n {
					return
				}
				k, err := attempt(w, rep, seeds[rep], r, body)
				retried.Add(int64(k))
				if err != nil {
					fails[w], failRep[w] = err, rep
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	retries := int(retried.Load())
	if err := ctx.Err(); err != nil {
		return retries, err
	}
	first := -1
	for w, err := range fails {
		if err != nil && (first < 0 || failRep[w] < failRep[first]) {
			first = w
		}
	}
	if first >= 0 {
		return retries, fails[first]
	}
	return retries, nil
}

// attempt runs one replication until an attempt returns without
// panicking or the attempts run out, reseeding r before each so a replay
// sees the same draws. It reports how many attempts were replayed.
func attempt(w, rep int, seed uint64, r *rng.Rand, body func(w, rep int, r *rng.Rand) error) (int, error) {
	for k := 1; ; k++ {
		r.Seed(seed)
		cause, err := guard(w, rep, r, body)
		if cause == nil {
			return k - 1, err
		}
		if k == maxAttempts {
			return k - 1, &RepPanic{Worker: w, Rep: rep, Attempts: k, Cause: cause}
		}
		time.Sleep(retryBackoff << (k - 1))
	}
}

// guard calls body, converting a panic into its recovered value.
func guard(w, rep int, r *rng.Rand, body func(w, rep int, r *rng.Rand) error) (cause any, err error) {
	defer func() { cause = recover() }()
	return nil, body(w, rep, r)
}

// Replicate runs n independent replications of body on Run, with the
// streams Streams(seed, n), and returns the results in replication
// order: identical for every worker count (workers <= 0 selects
// GOMAXPROCS). The first error by replication index (a body error or a
// *RepPanic) discards the results.
func Replicate[T any](n, workers int, seed uint64, body func(rep int, r *rng.Rand) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	_, err := Run(context.Background(), Streams(seed, n), workers, func(_, rep int, r *rng.Rand) error {
		var err error
		out[rep], err = body(rep, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
