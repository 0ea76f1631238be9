package optimize

import (
	"fmt"
	"os"

	"diversify/internal/evalstore"
	"diversify/internal/telemetry"
)

// syncEvery is the log sync cadence in fresh measurements: an OS crash
// loses at most syncEvery-1 of them (a process crash loses none, every
// append is already a write).
const syncEvery = 32

// evalSpecDigest hashes everything OUTSIDE the candidate that shapes an
// evaluation's raw measurements: the exploit catalog, the threat
// profile, the horizon, the replication count and seed (the common
// random number streams). The topology is deliberately left out (it
// is its own key word), and so are the cost model, budget, objective,
// axes and search knobs — those shape what the optimizer does with
// measurements, not the measurements themselves, which is exactly why a
// re-optimization under a tweaked budget or objective can warm-start
// from the store.
func evalSpecDigest(p *Problem) uint64 {
	d := newDigester()
	d.str("diversify/evalspec/v1")
	d.u64(p.Catalog.Fingerprint())
	digestProfile(d, p)
	d.f64(p.Horizon)
	d.i64(int64(p.Reps))
	d.u64(p.Seed)
	// The slot of a retired firewall override, always empty: hashing it
	// keeps the digest, and so existing logs, unchanged.
	d.str("")
	return d.sum()
}

// openLogs attaches the durable evaluation logs named by opts — the
// store first, then the checkpoint — opening each distinct file once: a
// store and checkpoint naming the same file (x, ./x, a symlink) share
// one Store rather than two handles appending over each other. Every
// opened log is announced with what it already holds and any torn tail
// it truncated.
func (e *Evaluator) openLogs(opts RunOptions) error {
	var first os.FileInfo
	for _, l := range [...]struct{ path, source string }{
		{opts.StorePath, "evalstore"}, {opts.CheckpointPath, "checkpoint"},
	} {
		if l.path == "" {
			continue
		}
		if first != nil {
			if fi, err := os.Stat(l.path); err == nil && os.SameFile(first, fi) {
				continue
			}
		}
		st, err := evalstore.Open(l.path)
		if err != nil {
			return err
		}
		e.logs = append(e.logs, st)
		if first == nil {
			if first, err = os.Stat(l.path); err != nil {
				return err
			}
		}
		if e.sink != nil {
			e.sink.Emit(telemetry.StoreWarmStart{
				Source: l.source, Path: l.path, Evaluations: st.Len(), Recovered: st.Recovered(),
			})
		}
	}
	if len(e.logs) > 0 {
		e.topoFP = e.p.Topo.Fingerprint()
		e.specFP = evalSpecDigest(e.p)
	}
	return nil
}

// logged serves a cache miss from the first log holding its key.
func (e *Evaluator) logged(fp uint64) (evalstore.Measurements, bool) {
	for _, l := range e.logs {
		if m, ok := l.Get(e.storeKey(fp)); ok {
			return m, true
		}
	}
	return evalstore.Measurements{}, false
}

// record appends a fresh measurement to every log, syncing them all
// after every syncEvery-th one.
func (e *Evaluator) record(fp uint64, s Score) error {
	if len(e.logs) == 0 {
		return nil
	}
	key, m := e.storeKey(fp), measurementsOf(s)
	for _, l := range e.logs {
		if err := l.Put(key, m); err != nil {
			return fmt.Errorf("optimize: evaluation log: %w", err)
		}
	}
	e.storePuts++
	if e.storePuts%syncEvery != 0 {
		return nil
	}
	start := wallClock()
	bytes := 0
	for _, l := range e.logs {
		n, err := l.Sync()
		if err != nil {
			return fmt.Errorf("optimize: evaluation log: %w", err)
		}
		bytes += n
	}
	took := sinceWall(start)
	e.syncs++
	e.syncTime += took
	if e.sink != nil {
		e.sink.Emit(telemetry.CheckpointWritten{Evaluations: e.storePuts, Bytes: bytes, Duration: took})
	}
	return nil
}

// closeLogs syncs and closes every log, reporting the first failure.
// The logs are detached, so a second call is a no-op.
func (e *Evaluator) closeLogs() error {
	var first error
	for _, l := range e.logs {
		if err := l.Close(); err != nil && first == nil {
			first = fmt.Errorf("optimize: evaluation log: %w", err)
		}
	}
	e.logs = nil
	return first
}

// storeKey builds the durable-store key for a candidate fingerprint.
func (e *Evaluator) storeKey(candFP uint64) evalstore.Key {
	return evalstore.Key{Topo: e.topoFP, Cand: candFP, Spec: e.specFP}
}

// measurementsOf flattens a Score's raw measurements in the store's
// fixed order — Value and Cost stay out, they are recomputed from the
// consuming run's own objective and cost model. Slot 9 held a rotation
// cost that always equalled the rotation count; it is written with
// MeanRotations so records stay byte-identical to older logs, and
// scoreFromMeasurements ignores it.
func measurementsOf(s Score) evalstore.Measurements {
	return evalstore.Measurements{
		s.PSuccess, s.MeanTTSF, s.FinalRatio, s.PDetect, s.MeanDetLatency,
		s.MeanDetections, s.MeanFoothold, s.MeanRotations, s.MeanReinfections,
		s.MeanRotations,
	}
}

// scoreFromMeasurements inverts measurementsOf (Value and Cost are
// filled in by the caller).
func scoreFromMeasurements(m evalstore.Measurements) Score {
	return Score{
		PSuccess: m[0], MeanTTSF: m[1], FinalRatio: m[2], PDetect: m[3],
		MeanDetLatency: m[4], MeanDetections: m[5], MeanFoothold: m[6],
		MeanRotations: m[7], MeanReinfections: m[8],
	}
}
