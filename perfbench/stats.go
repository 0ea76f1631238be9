package main

import (
	"math"
	"slices"
)

// median returns the middle sample (mean of the two middle ones for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of a sample that still has at least
// tailBeyond samples above it.
type tail struct {
	// Pct is the percentile rank in [50, 100); Value the sample at it; N
	// the sample count. OK is false when the sample is too small for a
	// tail at or above the median.
	Pct   float64
	Value float64
	N     int
	OK    bool
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile, so that the tail is not set by one or two outliers.
const tailBeyond = 10

// tailPercentile applies the tail rule: sorted ascending, the sample at
// index n-1-tailBeyond has exactly tailBeyond samples after it, and its
// percentile rank is (n-tailBeyond)/n. Below 2*tailBeyond samples that
// rank would fall under the median, so there is no tail to report.
func tailPercentile(xs []float64) tail {
	n := len(xs)
	if n < 2*tailBeyond {
		return tail{N: n}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return tail{
		Pct:   100 * float64(n-tailBeyond) / float64(n),
		Value: s[n-1-tailBeyond],
		N:     n,
		OK:    true,
	}
}

// span is one timed interval of a traced run: a layer boundary the
// benchmark observed, with the span that caused it. Times are
// nanoseconds since the benchmark started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	RunID  string `json:"run_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// clipped is the part of child's duration that lies inside parent.
func clipped(parent, child span) int64 {
	return max(0, min(child.End, parent.End)-max(child.Start, parent.Start))
}

// selfTime is a span's duration minus the part of it that its children
// cover. Children are clipped to the parent and overlapping children
// are counted once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// outcome is one optimize call's verdict: it failed if it returned an
// error, reported a degraded or quarantined run, or failed an output
// check.
type outcome struct {
	err         error
	degraded    bool
	quarantined bool
	checkFailed bool
}

func (o outcome) failed() bool {
	return o.err != nil || o.degraded || o.quarantined || o.checkFailed
}

// failedFrac is failed calls over calls attempted (0 when none were).
func failedFrac(outs []outcome) (failed, attempted int, frac float64) {
	for _, o := range outs {
		if o.failed() {
			failed++
		}
	}
	attempted = len(outs)
	if attempted == 0 {
		return 0, 0, 0
	}
	return failed, attempted, float64(failed) / float64(attempted)
}

// ratio divides, reading 0/0 as 0.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}
