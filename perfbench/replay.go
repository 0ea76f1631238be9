package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"diversify"
	"diversify/internal/des"
	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/malware"
	"diversify/internal/rng"
	"diversify/internal/rotation"
	"diversify/internal/trace"
)

// replayMinTime is how long each replay measurement repeats its passes.
const replayMinTime = 300 * time.Millisecond

// desWindow is how many replayed events the DES replay keeps pending at
// once.
const desWindow = 32

// microbenchHorizon is the horizon of the package microbenchmarks
// (BenchmarkCampaignGrid200), replayed to show how far that regime is
// from the 720 h one the optimizer runs.
const microbenchHorizon = 168

// replayResult is the per-layer view of one optimize call, obtained by
// replaying its baseline and winner through the public campaign API.
type replayResult struct {
	repMS            []float64
	allocsPerRep     float64 // malloc count per replication
	bytesPerRep      float64
	recordsPerRep    float64
	attemptsPerRep   float64 // lateral and stage attempts: landed + blocked + firewalled
	landedPerRep     float64
	infectionsPerRep float64
	lookupsPerRep    float64
	lookupNS         float64
	desNSPerEvent    float64
	desEvents        int
	rotTicksPerRep   float64
	rotationsPerRep  float64
	reinfectPerRep   float64
	overheadRatio    float64 // 0 when the winner rotates nothing
	// The baseline's replication at the workload's horizon and at the
	// microbenchmark horizon (regime cross-check).
	baseRepMS  float64
	baseAllocs float64
	rep168MS   float64
	allocs168  float64
	faithful   bool
}

// sinkF keeps replayed lookups observable so the compiler cannot drop
// them.
var sinkF float64

// candidate is one replayed placement.
type candidate struct {
	label  string
	assign malware.Assignment
	eng    *rotation.Engine
}

type replayer struct {
	cat     *exploits.Catalog
	camp    *malware.Campaign
	r       *rng.Rand
	seeds   []uint64
	horizon float64
}

func (rp *replayer) run(c candidate, rep int, horizon float64) (bool, error) {
	rp.r.Seed(rp.seeds[rep])
	rp.camp.Reset(c.assign, rp.r)
	if c.eng != nil {
		rp.camp.SetRotation(c.eng)
	} else {
		rp.camp.SetRotation(nil)
	}
	out, err := rp.camp.Run(horizon)
	return out.Success, err
}

// pass runs every replication of every candidate once at horizon and
// returns each replication's wall time in ms.
func (rp *replayer) pass(cands []candidate, horizon float64) ([]float64, error) {
	var out []float64
	for _, c := range cands {
		for i := range rp.seeds {
			t0 := time.Now()
			if _, err := rp.run(c, i, horizon); err != nil {
				return nil, err
			}
			out = append(out, ms(time.Since(t0)))
		}
	}
	return out, nil
}

// timed repeats passes for at least replayMinTime.
func (rp *replayer) timed(cands []candidate, horizon float64) ([]float64, error) {
	var all []float64
	for start := time.Now(); len(all) == 0 || time.Since(start) < replayMinTime; {
		xs, err := rp.pass(cands, horizon)
		if err != nil {
			return nil, err
		}
		all = append(all, xs...)
	}
	return all, nil
}

// allocs measures mallocs and bytes per replication over one pass.
func (rp *replayer) allocs(cands []candidate, horizon float64) (float64, float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	xs, err := rp.pass(cands, horizon)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, err
	}
	n := float64(len(xs))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}

// replay re-runs an optimize call's baseline and winner on one worker:
// the same topology, catalog, profile and per-replication streams the
// evaluator used (common random numbers), so the replayed outcomes must
// reproduce the result's attack-success figures.
func replay(cfg diversify.OptimizeConfig, res *diversify.OptimizeResult, tr *tracer, runID string) (replayResult, error) {
	var out replayResult
	root, endRoot := tr.begin("bench.replay", runID, 0)
	defer endRoot()
	topo, err := diversify.BuildTopology(cfg.Topology)
	if err != nil {
		return out, err
	}
	horizon := horizonOf(cfg)
	profile := malware.StuxnetProfile()
	rp := &replayer{cat: exploits.StuxnetCatalog(), r: rng.New(0), horizon: horizon}
	streams := rng.New(cfg.Seed)
	rp.seeds = make([]uint64, cfg.Reps)
	for i := range rp.seeds {
		rp.seeds[i] = streams.Uint64()
	}
	rp.camp, err = malware.NewCampaign(malware.Config{Topo: topo, Catalog: rp.cat, Profile: profile, Rand: rp.r})
	if err != nil {
		return out, err
	}
	best := candidate{label: "best", assign: res.BestAssignment.Func()}
	if res.BestRotationSpec != nil {
		best.eng, err = rotation.NewEngine(*res.BestRotationSpec, topo, rp.cat, profile)
		if err != nil {
			return out, err
		}
	}
	base := candidate{label: "baseline", assign: diversity.NewAssignment().Func()}
	cands := []candidate{base, best}

	// step times one replay stage as a child span of the replay.
	step := func(name string, fn func() error) error {
		_, end := tr.begin(name, runID, root)
		defer end()
		return fn()
	}
	var triples []lookup
	var eventTimes [][]float64
	err = step("replay.malware", func() error {
		var err error
		out.faithful, err = rp.faithful([]candidate{base, best}, []float64{res.Baseline.PSuccess, res.Best.PSuccess})
		if err != nil {
			return err
		}
		if out.allocsPerRep, out.bytesPerRep, err = rp.allocs(cands, horizon); err != nil {
			return err
		}
		out.repMS, err = rp.timed(cands, horizon)
		return err
	})
	if err == nil && best.eng != nil {
		err = step("replay.rotation", func() error {
			var err error
			out.overheadRatio, err = rp.rotationOverhead(best)
			return err
		})
	}
	if err == nil {
		err = step("replay.trace", func() error {
			var err error
			triples, eventTimes, err = rp.traced(cands, best, &out)
			return err
		})
	}
	if err == nil {
		err = step("replay.exploits", func() error {
			out.lookupNS = replayLookups(rp.cat, triples)
			return nil
		})
	}
	if err == nil {
		err = step("replay.des", func() error {
			var err error
			out.desNSPerEvent, out.desEvents, err = replayDES(eventTimes)
			return err
		})
	}
	if err == nil {
		err = step("replay.regime", func() error {
			for _, r := range []struct {
				h      float64
				ms     *float64
				allocs *float64
			}{{horizon, &out.baseRepMS, &out.baseAllocs}, {microbenchHorizon, &out.rep168MS, &out.allocs168}} {
				xs, err := rp.timed([]candidate{base}, r.h)
				if err != nil {
					return err
				}
				*r.ms = median(xs)
				if *r.allocs, _, err = rp.allocs([]candidate{base}, r.h); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return out, err
}

// faithful replays each candidate's replications and reports whether
// their success rates equal the optimizer's (want, in candidate order).
func (rp *replayer) faithful(cands []candidate, want []float64) (bool, error) {
	ok := true
	for k, c := range cands {
		succ := 0
		for i := range rp.seeds {
			won, err := rp.run(c, i, rp.horizon)
			if err != nil {
				return false, err
			}
			if won {
				succ++
			}
		}
		if got := float64(succ) / float64(len(rp.seeds)); got != want[k] {
			ok = false
			fmt.Printf("  replay of %s: success %.4f, optimizer reported %.4f\n", c.label, got, want[k])
		}
	}
	return ok, nil
}

// rotationOverhead compares the winner's replication time with and
// without its rotation schedule, alternating passes.
func (rp *replayer) rotationOverhead(best candidate) (float64, error) {
	static := candidate{label: "best-static", assign: best.assign}
	var with, without []float64
	for start := time.Now(); len(with) == 0 || time.Since(start) < replayMinTime; {
		a, err := rp.pass([]candidate{best}, rp.horizon)
		if err != nil {
			return 0, err
		}
		b, err := rp.pass([]candidate{static}, rp.horizon)
		if err != nil {
			return 0, err
		}
		with, without = append(with, a...), append(without, b...)
	}
	return ratio(mean(with), mean(without)), nil
}

// lookup is one (stage, vector, variant) exploitability query the
// campaign made, as recorded by its trace.
type lookup struct {
	stage   exploits.Stage
	vector  exploits.Vector
	variant exploits.VariantID
}

// traced runs one pass with a trace.Tracer attached and derives the
// record counts, the exploitability queries and each replication's
// event-time stream.
func (rp *replayer) traced(cands []candidate, best candidate, out *replayResult) ([]lookup, [][]float64, error) {
	tr := trace.NewTracer(0)
	rp.camp.SetTracer(tr)
	defer rp.camp.SetTracer(nil)
	var triples []lookup
	var streams [][]float64
	var records, landed, blocked, firewalled, infected int
	var ticks, rotations, reinfections int
	for _, c := range cands {
		for i := range rp.seeds {
			if _, err := rp.run(c, i, rp.horizon); err != nil {
				return nil, nil, err
			}
			recs := tr.Records()
			records += len(recs)
			times := make([]float64, len(recs))
			for j, r := range recs {
				times[j] = r.T
				switch r.Kind {
				case trace.KindAttempt:
					landed++
				case trace.KindBlocked:
					blocked++
				case trace.KindFirewall:
					firewalled++
				case trace.KindInfected:
					infected++
				}
				if (r.Kind == trace.KindAttempt || r.Kind == trace.KindBlocked) && r.Variant != "" {
					triples = append(triples, lookup{r.Stage, r.Vector, r.Variant})
				}
				if c.label == best.label {
					switch r.Kind {
					case trace.KindRotTick:
						ticks++
					case trace.KindRotate:
						rotations++
					case trace.KindReinfect:
						reinfections++
					}
				}
			}
			slices.Sort(times)
			streams = append(streams, times)
		}
	}
	all := float64(len(cands) * len(rp.seeds))
	reps := float64(len(rp.seeds))
	out.recordsPerRep = float64(records) / all
	out.attemptsPerRep = float64(landed+blocked+firewalled) / all
	out.landedPerRep = float64(landed) / all
	out.infectionsPerRep = float64(infected) / all
	out.lookupsPerRep = float64(len(triples)) / all
	out.rotTicksPerRep = float64(ticks) / reps
	out.rotationsPerRep = float64(rotations) / reps
	out.reinfectPerRep = float64(reinfections) / reps
	return triples, streams, nil
}

// replayLookups times Catalog.Exploitability over the traced queries and
// returns ns per query.
func replayLookups(cat *exploits.Catalog, triples []lookup) float64 {
	if len(triples) == 0 {
		return 0
	}
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < replayMinTime {
		for _, q := range triples {
			p, _, err := cat.Exploitability(q.stage, q.vector, q.variant)
			if err == nil {
				sinkF += p
			}
		}
		n += len(triples)
	}
	return float64(time.Since(start)) / float64(n)
}

// desReplay drives a des.Sim through a recorded event-time stream,
// keeping desWindow events pending: each fired event schedules the next
// recorded time.
type desReplay struct {
	sim   *des.Sim
	times []float64
	next  int
	fired int
	fire  func(des.Payload)
}

func (d *desReplay) onFire(des.Payload) {
	d.fired++
	if d.next < len(d.times) {
		// Clamped: the clock may sit one rounding step past an equal time.
		d.sim.SchedulePayload(max(0, d.times[d.next]-d.sim.Now()), d.fire, des.Payload{})
		d.next++
	}
}

// replayDES returns ns per replayed event and the events per pass.
func replayDES(streams [][]float64) (float64, int, error) {
	d := &desReplay{sim: des.NewSim()}
	d.fire = d.onFire
	events := 0
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < replayMinTime; pass++ {
		for _, s := range streams {
			d.sim.Reset()
			d.times, d.next = s, 0
			for d.next < len(s) && d.next < desWindow {
				d.sim.SchedulePayload(s[d.next], d.fire, des.Payload{})
				d.next++
			}
			if err := d.sim.Run(math.Inf(1)); err != nil {
				return 0, 0, err
			}
		}
		if pass == 0 {
			events = d.fired
		}
	}
	return ratio(float64(time.Since(start)), float64(d.fired)), events, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
