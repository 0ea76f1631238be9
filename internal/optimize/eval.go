package optimize

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"diversify/internal/des"
	"diversify/internal/diversity"
	"diversify/internal/evalstore"
	"diversify/internal/indicators"
	"diversify/internal/malware"
	"diversify/internal/rng"
	"diversify/internal/rotation"
	"diversify/internal/telemetry"
	"diversify/internal/trace"
)

// archived is one archived evaluation (the candidate snapshot feeds the
// Pareto front and best-candidate extraction).
type archived struct {
	fingerprint uint64
	cand        Candidate
	score       Score
	// zoneOK caches the MaxPerZone feasibility verdict, so extraction and
	// front-building never surface a constraint-violating candidate the
	// search happened to evaluate.
	zoneOK bool
}

// quarantineValue is the objective value assigned to quarantined
// candidates: finite (so JSON encoding and value comparisons stay
// well-defined) but worse than any measurable score, so no strategy ever
// prefers a quarantined candidate.
const quarantineValue = math.MaxFloat64

// Evaluator turns candidates into Scores by Monte-Carlo campaign
// simulation on des.Run. It owns
//
//   - a malware.Pool kept across candidates: one reusable campaign per
//     worker, Reset between replications, so construction is paid once
//     per worker, not once per replication;
//   - a fixed vector of per-replication stream seeds, so every candidate
//     is measured under common random numbers (identical attack luck),
//     which makes candidate comparisons variance-reduced and the score a
//     pure function of the candidate;
//   - per-worker rotation engines for every schedule in
//     Problem.Rotations, built lazily the first time a schedule is
//     simulated (engine state is per-campaign; sharing one across
//     workers would race) — campaigns swap between rotated and static
//     candidates via Campaign.SetRotation;
//   - a memoization cache keyed by candidate fingerprint (assignment ×
//     schedule), so a candidate revisited by annealing or genetic
//     recombination is never re-simulated.
//
// Score calls must come from one goroutine (the strategy loop); the
// executor's fan-out across workers is the only concurrency.
type Evaluator struct {
	p     *Problem
	seeds []uint64

	// ctx cancels evaluations: workers stop claiming replication batches
	// once it is done (in-flight replications drain cleanly) and Score
	// returns the context error without caching a partial measurement.
	ctx context.Context

	nWorkers int
	pool     *malware.Pool

	// rotFPs[i] digests p.Rotations[i]; rotors[i][w] is worker w's engine
	// for schedule i (nil column until first use).
	rotFPs []uint64
	rotors [][]*rotation.Engine

	cache   map[uint64]Score
	archive []archived
	hits    int
	misses  int
	// quarantined counts candidates scored infeasible after repeated
	// evaluation panics; retries counts panicked replication attempts
	// that were replayed; repHook is the fault-injection seam the
	// robustness tests use (called once per replication attempt, before
	// the campaign runs).
	quarantined int
	retries     int
	repHook     func(c Candidate, rep int)

	// sink, when non-nil, receives the telemetry event stream; started
	// anchors the monotonic Elapsed stamps on trace steps and events.
	// Emissions are guarded by one nil-check so a run without telemetry
	// pays nothing on the hot path.
	sink    telemetry.Sink
	started time.Time

	// logs are the durable evaluation logs (internal/evalstore), one per
	// distinct file: the store, then the checkpoint. A cache miss is
	// served by the first log holding its key (topoFP and specFP complete
	// it); a fresh measurement is appended to every log, and a failed
	// append fails the Score call. storeHits/storePuts count serves and
	// fresh appends; syncs and syncTime the periodic log syncs.
	logs           []*evalstore.Store
	topoFP, specFP uint64
	storeHits      int
	storePuts      int
	syncs          int
	syncTime       time.Duration

	// reps[i] is replication i's contribution to the current candidate,
	// aggregated sequentially in replication order so float accumulation
	// is independent of the worker count.
	reps []repSummary

	// zoneBuf is the reusable scratch for MaxPerZone violation scans.
	zoneBuf []diversity.Entry
}

// repSummary is what one replication contributes to a Score.
type repSummary struct {
	success, detected                   bool
	detections, rotations, reinfections int
	ttsf, ratio, dwell, foothold, cost  float64
}

// newEvaluator prepares the worker pool for a normalized, validated
// problem.
func newEvaluator(p *Problem) (*Evaluator, error) {
	w := des.Workers(p.Reps, p.Workers)
	root := rng.New(p.Seed)
	seeds := make([]uint64, p.Reps)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}
	// Fail fast on an unusable campaign template.
	pool, err := malware.NewPool(malware.Config{
		Topo: p.Topo, Catalog: p.Catalog, Profile: p.Profile, FirewallVariant: p.FirewallVariant,
	}, w)
	if err != nil {
		return nil, err
	}
	ev := &Evaluator{
		p:        p,
		ctx:      context.Background(), //diversify:allow-context placeholder until RunContext installs the caller's context; bare Score calls never block on it
		started:  wallClock(),
		repHook:  p.repHook,
		seeds:    seeds,
		nWorkers: w,
		pool:     pool,
		rotFPs:   make([]uint64, len(p.Rotations)),
		rotors:   make([][]*rotation.Engine, len(p.Rotations)),
		cache:    map[uint64]Score{},
		reps:     make([]repSummary, p.Reps),
	}
	for i, spec := range p.Rotations {
		ev.rotFPs[i] = spec.Fingerprint()
	}
	// And on unusable rotation schedules (missing variants, empty
	// candidate sets) before any strategy pairs a placement with one.
	for i := range p.Rotations {
		if _, err := rotation.NewEngine(p.Rotations[i], p.Topo, p.Catalog, p.Profile); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// Cost prices a candidate without simulating it — the placement cost
// plus the schedule's planned rotation cost. Strategies use it to
// screen infeasible moves before spending replications.
func (e *Evaluator) Cost(c Candidate) float64 {
	cost := e.p.Cost.Cost(e.p.Topo, c.A)
	if c.Rot >= 0 {
		cost += e.p.Rotations[c.Rot].PlannedCost(e.p.Horizon)
	}
	return cost
}

// ZoneOK reports the MaxPerZone feasibility of a placement (true when
// the constraint is disabled). Like Cost it needs no simulation.
func (e *Evaluator) ZoneOK(a *diversity.Assignment) bool {
	e.zoneBuf = zoneViolations(e.p, a, e.zoneBuf)
	return len(e.zoneBuf) == 0
}

// engines returns the per-worker rotation engines for schedule rot,
// building the column on first use.
func (e *Evaluator) engines(rot int) ([]*rotation.Engine, error) {
	if e.rotors[rot] == nil {
		col := make([]*rotation.Engine, e.nWorkers)
		for w := range col {
			eng, err := rotation.NewEngine(e.p.Rotations[rot], e.p.Topo, e.p.Catalog, e.p.Profile)
			if err != nil {
				return nil, err
			}
			col[w] = eng
		}
		e.rotors[rot] = col
	}
	return e.rotors[rot], nil
}

// Score evaluates a candidate, consulting the fingerprint cache first.
// The returned Score is identical for identical candidates regardless of
// evaluation order or worker count. The candidate is snapshotted, so the
// caller may keep mutating it.
//
//diversify:hotpath the memoized hit path runs once per search step; new escapes here tax every strategy
func (e *Evaluator) Score(c Candidate) (Score, error) {
	if err := e.ctx.Err(); err != nil {
		return Score{}, err
	}
	fp := c.fingerprint(e.rotFPs)
	if s, ok := e.cache[fp]; ok {
		e.hits++
		return s, nil
	}
	e.misses++
	var s Score
	if m, ok := e.logged(fp); ok {
		// Warm start: the measurements are a pure function of the key,
		// so re-using them is bit-identical to re-simulating. Value and
		// Cost are recomputed below under THIS run's objective and cost
		// model — which is what lets a budget- or objective-tweaked
		// re-optimization skip the replications.
		s = scoreFromMeasurements(m)
		s.Value = e.value(s)
		e.storeHits++
		if e.sink != nil {
			e.sink.Emit(telemetry.EvaluationBatch{
				Fingerprint: fp, FromStore: true,
				Evaluations: e.misses, CacheHits: e.hits, StoreHits: e.storeHits,
			})
		}
	} else {
		// The batch timer exists only when a sink does: the disabled path
		// must not even read the clock.
		var batchStart time.Time
		if e.sink != nil {
			batchStart = wallClock()
		}
		var err error
		s, err = e.simulate(c)
		if errors.Is(err, des.ErrPanic) {
			// The candidate's evaluation panicked repeatedly: quarantine it —
			// cached as infeasible so the search keeps moving and never
			// revisits it — instead of killing the whole run.
			e.quarantined++
			s = Score{Value: quarantineValue, Quarantined: true}
		} else if err != nil {
			return Score{}, err
		} else {
			s.Value = e.value(s)
			if err := e.record(fp, s); err != nil {
				return Score{}, err
			}
			if e.sink != nil {
				e.sink.Emit(telemetry.EvaluationBatch{
					Fingerprint: fp, Replications: e.p.Reps,
					Duration:    sinceWall(batchStart),
					Evaluations: e.misses, CacheHits: e.hits, StoreHits: e.storeHits,
				})
			}
		}
	}
	s.Cost = e.Cost(c)
	e.cache[fp] = s
	e.archive = append(e.archive, archived{
		fingerprint: fp,
		cand:        c.Clone(),
		score:       s,
		zoneOK:      e.ZoneOK(c.A),
	})
	return s, nil
}

// value maps measurements to the minimized scalar.
func (e *Evaluator) value(s Score) float64 {
	switch e.p.Objective {
	case MinimizeRatio:
		return s.FinalRatio
	case MaximizeTTSF:
		return -s.MeanTTSF
	case MinimizeFoothold:
		return s.MeanFoothold
	default: // MinimizeSuccess
		return s.PSuccess + 1e-3*s.FinalRatio
	}
}

// simulate runs the replications for one candidate on des.Run and
// aggregates the indicators. Every candidate replays the same
// per-replication seeds (common random numbers) on the evaluator's
// long-lived pool. A replication that panics on every attempt comes
// back as a *des.RepPanic, which quarantines the candidate.
func (e *Evaluator) simulate(c Candidate) (Score, error) {
	assign := c.A.Func()
	var engs []*rotation.Engine
	if c.Rot >= 0 {
		var err error
		if engs, err = e.engines(c.Rot); err != nil {
			return Score{}, err
		}
	}
	retries, err := des.Run(e.ctx, e.seeds, e.nWorkers, func(w, rep int, r *rng.Rand) error {
		if e.repHook != nil {
			e.repHook(c, rep)
		}
		var rot malware.Rotator
		if engs != nil {
			rot = engs[w]
		}
		out, err := e.pool.Run(w, rep, r, assign, rot, e.p.Horizon)
		if err != nil {
			return err
		}
		ttsf := out.Horizon
		if out.Detected {
			ttsf = out.TTSF
		}
		e.reps[rep] = repSummary{
			success: out.Success, detected: out.Detected,
			detections: out.Detections, rotations: out.Rotations, reinfections: out.Reinfections,
			ttsf: ttsf, ratio: indicators.RatioAt(out.Compromised, out.Horizon),
			dwell: out.DwellTime(), foothold: out.FootholdTime, cost: out.RotationCost,
		}
		return nil
	})
	e.retries += retries
	var rp *des.RepPanic
	if errors.As(err, &rp) && e.sink != nil {
		e.sink.Emit(telemetry.WorkerQuarantined{
			Worker: rp.Worker, Replication: rp.Rep, Attempts: rp.Attempts, Cause: fmt.Sprint(rp.Cause),
		})
	}
	if err != nil {
		return Score{}, err
	}
	// Aggregate in replication order: float accumulation is then
	// independent of the worker count.
	var s Score
	succ, det, dcnt, rot, reinf := 0, 0, 0, 0, 0
	for _, r := range e.reps {
		if r.success {
			succ++
		}
		if r.detected {
			det++
		}
		dcnt += r.detections
		rot += r.rotations
		reinf += r.reinfections
		s.MeanTTSF += r.ttsf
		s.FinalRatio += r.ratio
		s.MeanDetLatency += r.dwell
		s.MeanFoothold += r.foothold
		s.MeanRotationCost += r.cost
	}
	n := float64(e.p.Reps)
	s.PSuccess = float64(succ) / n
	s.PDetect = float64(det) / n
	s.MeanTTSF /= n
	s.FinalRatio /= n
	s.MeanDetLatency /= n
	s.MeanDetections = float64(dcnt) / n
	s.MeanFoothold /= n
	s.MeanRotations = float64(rot) / n
	s.MeanReinfections = float64(reinf) / n
	s.MeanRotationCost /= n
	return s, nil
}

// explain re-simulates one candidate with trace capture on the sampled
// replications and aggregates the captures into an explanation report.
// The replay reuses the evaluator's pool and CRN streams, so it
// reproduces exactly the attack sequences the search scored — and
// because capture consumes no RNG draw, running it perturbs nothing:
// scores, goldens and the search trajectory are byte-identical with
// explanations on or off. The sampled set is the one
// malware.EvaluateTraced would pick for the same stream seeds.
func (e *Evaluator) explain(label string, c Candidate, sample float64) (trace.Explanation, error) {
	e.pool.Capture(sample, 0, e.p.Reps)
	_, err := e.simulate(c)
	traces := e.pool.Traces()
	e.pool.Capture(0, 0, 0)
	if err != nil {
		return trace.Explanation{}, err
	}
	nodes := e.p.Topo.Nodes()
	return trace.Explain(traces, trace.ExplainOpts{
		Candidate:    label,
		Rotation:     e.p.rotName(c.Rot),
		Replications: e.p.Reps,
		NodeName: func(id int32) string {
			if id >= 0 && int(id) < len(nodes) {
				return nodes[id].Name
			}
			return fmt.Sprintf("node%d", id)
		},
	}), nil
}

// bestFeasible returns the best archived candidate within budget (and
// within the zone constraint); equal values prefer the cheaper
// candidate, remaining ties keep the earliest evaluated (deterministic).
// The baseline is always in the archive, so the result is never worse
// than it.
func (e *Evaluator) bestFeasible(budget float64) (Score, Candidate, uint64) {
	var best archived
	found := false
	for _, c := range e.archive {
		if c.score.Cost > budget+budgetEps || !c.zoneOK || c.score.Quarantined {
			continue
		}
		better := !found || c.score.Value < best.score.Value ||
			(c.score.Value == best.score.Value && c.score.Cost < best.score.Cost)
		if better {
			best = c
			found = true
		}
	}
	if !found {
		return Score{}, Candidate{Rot: -1}, 0
	}
	return best.score, best.cand, best.fingerprint
}

// noteRound stamps one completed search round: the monotonic Elapsed
// timestamp goes on the trace step unconditionally (wall time is cheap
// and the resumed-run trace should say where the time went); the
// RoundCompleted event fires only when a sink is attached. Strategies
// call this right after appending the step, so `step` points into the
// live trace.
func (e *Evaluator) noteRound(strategy string, step *TraceStep, frontSize int) {
	step.Elapsed = sinceWall(e.started)
	if e.sink == nil {
		return
	}
	e.sink.Emit(telemetry.RoundCompleted{
		Strategy:    strategy,
		Round:       step.Iter,
		Action:      step.Action,
		Value:       step.Value,
		Cost:        step.Cost,
		Incumbent:   step.Best,
		Accepted:    step.Accepted,
		FrontSize:   frontSize,
		Evaluations: e.misses,
		CacheHits:   e.hits,
		Elapsed:     step.Elapsed,
	})
}

// newSearchRand derives an independent deterministic stream for one
// search role, so strategy moves, the random baseline and the evaluation
// streams never share draws.
func newSearchRand(seed uint64, role string) *rng.Rand {
	h := uint64(fnvOffsetBasis)
	for i := 0; i < len(role); i++ {
		h ^= uint64(role[i])
		h *= fnvPrime64
	}
	return rng.New(seed ^ h)
}

// FNV-1a 64-bit parameters (local copy; diversity keeps its own for
// fingerprinting).
const (
	fnvOffsetBasis = 14695981039346656037
	fnvPrime64     = 1099511628211
)
