package des

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"diversify/internal/rng"
)

const reps = 37

// draws runs reps replications that each record their first eight
// draws, under the given worker count.
func draws(t *testing.T, workers int) [reps][8]uint64 {
	t.Helper()
	var out [reps][8]uint64
	_, err := Run(context.Background(), Streams(11, reps), workers, func(_, rep int, r *rng.Rand) error {
		for i := range out[rep] {
			out[rep][i] = r.Uint64()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Which worker claims which replication is a scheduling detail: every
// worker count yields the same per-replication draws.
func TestRunWorkerBatchInvariant(t *testing.T) {
	want := draws(t, 1)
	for _, workers := range []int{2, 3, 8} {
		if got := draws(t, workers); got != want {
			t.Fatalf("workers=%d: draws diverged", workers)
		}
	}
}

// A cancelled context ends the fan-out at the next claim: Run returns
// ctx.Err() and no later replication starts.
func TestRunCancelStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Run(ctx, Streams(1, 40), 1, func(_, rep int, _ *rng.Rand) error {
		ran.Add(1)
		if rep == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Replications 0–5 ran; 6 is never claimed.
	if got := ran.Load(); got != 6 {
		t.Fatalf("%d replications ran, want 6 (the cancelling replication finishes, no further claim)", got)
	}
	if _, err := Run(ctx, Streams(1, 4), 2, func(int, int, *rng.Rand) error {
		t.Error("replication ran under a dead context")
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context: err = %v", err)
	}
}

// A replication that panics once is replayed on the same stream: the
// replay sees the same first draw, and Run counts one retry.
func TestRunRetryReplaysStream(t *testing.T) {
	var first [2]uint64
	var calls atomic.Int64
	retries, err := Run(context.Background(), Streams(3, 6), 3, func(_, rep int, r *rng.Rand) error {
		if rep != 4 {
			return nil
		}
		n := calls.Add(1)
		first[n-1] = r.Uint64()
		if n == 1 {
			panic("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if retries != 1 || calls.Load() != 2 {
		t.Fatalf("retries=%d calls=%d, want 1 and 2", retries, calls.Load())
	}
	if first[0] != first[1] {
		t.Fatalf("replay drew %x, first attempt %x", first[1], first[0])
	}
}

// When replications 5 and 2 panic on every attempt, the reported panic
// is replication 2's — whichever worker trips first.
func TestRunReportsLowestPanic(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		_, err := Run(context.Background(), Streams(5, 8), workers, func(_, rep int, _ *rng.Rand) error {
			if rep == 5 || rep == 2 {
				panic(fmt.Sprintf("rep %d", rep))
			}
			return nil
		})
		var rp *RepPanic
		if !errors.As(err, &rp) || !errors.Is(err, ErrPanic) {
			t.Fatalf("workers=%d: err = %v, want a *RepPanic", workers, err)
		}
		if rp.Rep != 2 || rp.Attempts != maxAttempts || rp.Cause != "rep 2" {
			t.Fatalf("workers=%d: got %+v, want replication 2 after %d attempts", workers, rp, maxAttempts)
		}
	}
}

// Replicate carries the first error by replication index.
func TestReplicateReturnsFirstError(t *testing.T) {
	out, err := Replicate(12, 4, 1, func(rep int, _ *rng.Rand) (int, error) {
		if rep == 3 || rep == 9 {
			return 0, fmt.Errorf("rep %d", rep)
		}
		return rep, nil
	})
	if out != nil || err == nil || err.Error() != "rep 3" {
		t.Fatalf("Replicate = %v, %v; want nil, rep 3", out, err)
	}
}
