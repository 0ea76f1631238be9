// Fixture for the detsource analyzer, type-checked under the virtual
// path diversify/internal/malware (determinism-critical).
package malware

import (
	"math/rand"
	"slices"
	"sort"
	"time"
)

func clock() time.Time {
	return time.Now() // want "wall-clock read time.Now"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "wall-clock read time.Since"
}

func allowedClock() time.Time {
	//diversify:allow-nondet fixture: audited exception with a reason
	return time.Now()
}

// The timer/ticker constructors arm the wall clock: their channels fire
// on wall time, which is scheduling nondeterminism by another name.
func armed() *time.Timer {
	return time.NewTimer(time.Second) // want "wall-clock read time.NewTimer"
}

func after() <-chan time.Time {
	return time.After(time.Second) // want "wall-clock read time.After"
}

func ticking() <-chan time.Time {
	return time.Tick(time.Second) // want "wall-clock read time.Tick"
}

func napping() {
	time.Sleep(time.Millisecond) // Sleep delays without producing a value: not a finding.
}

func draw() float64 {
	return rand.Float64() // want "global RNG math/rand"
}

func race(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	default: // want "select with default"
		return 0
	}
}

func unsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want "append to out inside map iteration"
	}
	return out
}

func sorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func sortSliced(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortSlicedStable(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func indexWrite(m map[string]int, idx map[string]int) []int {
	out := make([]int, len(m))
	for k, v := range m {
		out[idx[k]] = v
	}
	return out
}

func loopLocal(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var batch []int
		batch = append(batch, vs...)
		total += len(batch)
	}
	return total
}

func firstKey(m map[string]int) []string {
	var out []string
	for k := range m {
		return append(out, k) // want "iteration variable"
	}
	return out
}

func sentinel(m map[string]int) []string {
	var out []string
	for range m {
		return append(out, "found")
	}
	return out
}

func overChannel(ch chan string) []string {
	var out []string
	for s := range ch {
		out = append(out, s)
	}
	return out
}

func floatSum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want "float accumulation total"
	}
	return total
}

type tally struct{ sum float64 }

func (t *tally) scaled(m map[string]float64) {
	for _, v := range m {
		t.sum *= v // want "float accumulation t.sum"
	}
}

func floatInNested(m map[string][]float64) float64 {
	total := 0.0
	for _, vs := range m {
		for _, v := range vs {
			total -= v // want "float accumulation total"
		}
	}
	return total
}

func intSum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v // integer addition is associative: not a finding
	}
	return total
}

func loopLocalFloat(m map[string][]float64) []float64 {
	var out []float64
	for _, vs := range m {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		out = append(out, s) // want "append to out inside map iteration"
	}
	return out
}

func sliceFloatSum(xs []float64) float64 {
	total := 0.0
	for _, v := range xs {
		total += v // slice order is fixed: not a finding
	}
	return total
}
