package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"diversify"
	"diversify/internal/diversity"
	"diversify/internal/evalstore"
	"diversify/internal/exploits"
	"diversify/internal/topology"
)

// evalWorkers pins OptimizeConfig.Workers so runs on machines with
// different core counts stay comparable.
const evalWorkers = 2

// setupRepeats is how many times each task times the set-up calls; the
// reported setup_s is the median over all of them.
const setupRepeats = 5

// storeMode says how a task's durable evaluation store is prepared.
type storeMode int

const (
	noStore    storeMode = iota
	freshStore           // a new, empty store per task
	warmStore            // a fresh copy of a store filled before timing
)

// workload is one benchmark input set. A task runs the workload's legs
// (optimize calls, one at a time) for one optimizer seed; a cycle runs
// one task per seed derived from --seed.
type workload struct {
	name string
	spec string
	// seeds is how many optimizer seeds a cycle derives from --seed. The
	// optimizer's cost depends strongly on the seed (it fixes the attack
	// streams every candidate is scored on), so a run averages over
	// several.
	seeds      int
	legs       func(seed uint64) []diversify.OptimizeConfig
	store      storeMode
	checkpoint bool
	// fill is the untimed run that fills a warm store.
	fill func(seed uint64) diversify.OptimizeConfig
}

var workloads = []*workload{
	// grid:200 at 720 h: attack success is near 1.0, so the simulation
	// hot path (des, malware, exploits) does almost all the work. 64 reps
	// over few candidates, not 8 reps over many: with 8 shared attack
	// streams one call's cost swings with its seed.
	{
		name:  "saturated-grid200",
		spec:  "grid:200 classes=PLC,Protocol greedy budget=40 reps=64 horizon=720h iterations=1 screen=12",
		seeds: 16,
		legs: func(seed uint64) []diversify.OptimizeConfig {
			return []diversify.OptimizeConfig{{
				Topology: "grid:200", Classes: []string{"PLC", "Protocol"}, Strategy: "greedy",
				Budget: 40, Reps: 64, HorizonHours: 720, Iterations: 1, ScreenTop: 12, Seed: seed,
			}}
		},
	},
	// grid:60 placement x rotation schedules with a fresh store and
	// checkpoint per task: the only workload that runs the rotation
	// engine and the store and checkpoint write path.
	{
		name:  "cold-rotate-grid60",
		spec:  "grid:60 greedy budget=24 reps=16 horizon=720h rotations=triggered:48,periodic:72 store=fresh checkpoint=fresh",
		seeds: 12,
		legs: func(seed uint64) []diversify.OptimizeConfig {
			return []diversify.OptimizeConfig{{
				Topology: "grid:60", Strategy: "greedy", Budget: 24, Reps: 16, HorizonHours: 720,
				Rotations: []string{"triggered:48", "periodic:72"}, Seed: seed,
			}}
		},
		store:      freshStore,
		checkpoint: true,
	},
	// grid:60 greedy re-optimised at budgets 12..40 against a filled
	// store: topology build, store reads, memo and strategy carry the
	// time; each leg simulates only its random-placement row.
	{
		name:  "warm-sweep-grid60",
		spec:  "grid:60 greedy reps=64 horizon=720h budgets=12,16,...,40 store=copy of an untimed budget-40 fill",
		seeds: 2,
		legs: func(seed uint64) []diversify.OptimizeConfig {
			var legs []diversify.OptimizeConfig
			for b := 12; b <= 40; b += 4 {
				legs = append(legs, sweepLeg(seed, float64(b)))
			}
			return legs
		},
		store: warmStore,
		fill:  func(seed uint64) diversify.OptimizeConfig { return sweepLeg(seed, 40) },
	},
}

func sweepLeg(seed uint64, budget float64) diversify.OptimizeConfig {
	return diversify.OptimizeConfig{
		Topology: "grid:60", Strategy: "greedy", Budget: budget, Reps: 64, HorizonHours: 720, Seed: seed,
	}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// derivedSeed mixes the benchmark seed and a cycle slot (splitmix64), so
// nearby --seed values do not share optimizer seeds.
func derivedSeed(seed uint64, slot int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(slot+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// classByName mirrors the facade's component-class names.
var classByName = map[string]exploits.Class{
	"OS":        exploits.ClassOS,
	"PLC":       exploits.ClassPLCFirmware,
	"Protocol":  exploits.ClassProtocol,
	"HMI":       exploits.ClassHMISoftware,
	"EngTools":  exploits.ClassEngTools,
	"Historian": exploits.ClassHistorian,
}

// bench holds what one invocation shares across its tasks.
type bench struct {
	wl      *workload
	dir     string // scratch directory inside the checkout
	catalog *exploits.Catalog
	// fills maps a derived seed to its warm store's master copy (warm
	// workloads only).
	fills map[uint64]string
	// digests remembers each derived seed's result digest: every task of
	// the same seed must reproduce it.
	digests map[uint64]uint64
	outs    []outcome
	tasks   int
}

// taskResult is one task's measurements.
type taskResult struct {
	runS    float64
	allocMB float64
	best    float64
	digest  uint64
	cfgs    []diversify.OptimizeConfig
	results []*diversify.OptimizeResult
	// gcCycles / gcPauseMS span the task's optimize calls.
	gcCycles  float64
	gcPauseMS float64
	// storeBytes is the store file's size after the last leg.
	storeBytes float64
}

// setupResult is one timing of the set-up calls the facade makes,
// summed over a task's legs.
type setupResult struct {
	totalS float64
	topoMS float64
	openMS float64
	nodes  int
}

// measureSetup times the public calls the facade makes before a search:
// diversify.BuildTopology (with the lazy neighbor index forced),
// diversity.EnumerateOptions and, when a store is used, evalstore.Open.
func (b *bench) measureSetup(legs []diversify.OptimizeConfig, storeSrc string) (setupResult, error) {
	var r setupResult
	filter := func(n topology.Node) bool { return n.Kind != topology.KindCorporatePC }
	// Collect the previous task's garbage first, so a background GC
	// cycle does not land in these millisecond-scale timings.
	runtime.GC()
	for i, cfg := range legs {
		classes, err := classesOf(cfg.Classes)
		if err != nil {
			return r, err
		}
		path := filepath.Join(b.dir, fmt.Sprintf("setup-store-%d", i))
		if b.wl.store != noStore {
			if err := prepareStore(path, storeSrc); err != nil {
				return r, err
			}
		}
		t0 := time.Now()
		topo, err := diversify.BuildTopology(cfg.Topology)
		if err != nil {
			return r, err
		}
		topo.Neighbors(0)
		t1 := time.Now()
		diversity.EnumerateOptions(topo, b.catalog, classes, filter)
		t2 := time.Now()
		if b.wl.store != noStore {
			st, err := evalstore.Open(path)
			if err != nil {
				return r, err
			}
			if err := st.Close(); err != nil {
				return r, err
			}
		}
		t3 := time.Now()
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return r, err
		}
		r.totalS += t3.Sub(t0).Seconds()
		r.topoMS += ms(t1.Sub(t0))
		r.openMS += ms(t3.Sub(t2))
		r.nodes = topo.Len()
	}
	return r, nil
}

func classesOf(names []string) ([]exploits.Class, error) {
	if len(names) == 0 {
		names = []string{"OS", "PLC", "Protocol"}
	}
	out := make([]exploits.Class, 0, len(names))
	for _, n := range names {
		c, ok := classByName[n]
		if !ok {
			return nil, fmt.Errorf("unknown component class %q", n)
		}
		out = append(out, c)
	}
	return out, nil
}

// prepareStore leaves path as a fresh copy of src, or absent when src is
// empty.
func prepareStore(path, src string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	if src == "" {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// fillStores runs, for each seed, the untimed search that fills the
// store that seed's tasks copy.
func (b *bench) fillStores(ctx context.Context, seeds []uint64) error {
	if b.wl.store != warmStore {
		return nil
	}
	for _, seed := range seeds {
		path := filepath.Join(b.dir, fmt.Sprintf("fill-%d.store", seed))
		cfg := b.wl.fill(seed)
		cfg.Workers = evalWorkers
		cfg.Store = path
		res, err := diversify.OptimizeContext(ctx, cfg)
		if err != nil {
			return fmt.Errorf("fill store: %w", err)
		}
		if res.Degraded != "" {
			return fmt.Errorf("fill store: degraded run: %s", res.Degraded)
		}
		b.fills[seed] = path
	}
	return nil
}

// warmUp runs the first leg once, untimed and unchecked, with at most
// warmUpReps replications, so the first timed task does not pay for
// heap growth and cold caches. A warm store's fill already does this.
func (b *bench) warmUp(ctx context.Context, seed uint64) error {
	if b.wl.store == warmStore {
		return nil
	}
	cfg := b.wl.legs(seed)[0]
	cfg.Workers = evalWorkers
	cfg.Reps = min(cfg.Reps, warmUpReps)
	_, err := diversify.OptimizeContext(ctx, cfg)
	return err
}

// warmUpReps caps the warm-up call's replications.
const warmUpReps = 8

// runTask runs one task's legs as a closed loop: one optimize call at a
// time. A non-nil sink is attached to every call (traced run).
func (b *bench) runTask(ctx context.Context, seed uint64, tr *tracer) (taskResult, error) {
	legs := b.wl.legs(seed)
	tres := taskResult{cfgs: legs}
	storePath := filepath.Join(b.dir, "task.store")
	ckptPath := filepath.Join(b.dir, "task.ckpt")
	if b.wl.store != noStore {
		if err := prepareStore(storePath, b.fills[seed]); err != nil {
			return tres, err
		}
	}
	if err := prepareStore(ckptPath, ""); err != nil {
		return tres, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range legs {
		cfg := legs[i]
		cfg.Workers = evalWorkers
		if b.wl.store != noStore {
			cfg.Store = storePath
		}
		if b.wl.checkpoint {
			cfg.Checkpoint = ckptPath
		}
		var end func()
		if tr != nil {
			cfg.ProgressSink, end = tr.beginCall(fmt.Sprintf("%s/seed-%d/task-%d/leg-%d", b.wl.name, seed, b.tasks, i))
		}
		t0 := time.Now()
		res, err := diversify.OptimizeContext(ctx, cfg)
		took := time.Since(t0).Seconds()
		if end != nil {
			end()
		}
		tres.runS += took
		if err != nil {
			// A failed call has no result to check; it still counts.
			b.outs = append(b.outs, outcome{err: err})
			tres.results = append(tres.results, nil)
			continue
		}
		tres.results = append(tres.results, res)
	}
	runtime.ReadMemStats(&after)
	b.tasks++
	tres.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	tres.gcCycles = float64(after.NumGC - before.NumGC)
	tres.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if b.wl.store != noStore {
		if fi, err := os.Stat(storePath); err == nil {
			tres.storeBytes = float64(fi.Size())
		}
	}

	h := fnv.New64a()
	var bestSum float64
	var taskOuts []outcome
	for i, res := range tres.results {
		if res == nil {
			continue
		}
		o, d := checkResult(legs[i], res)
		fmt.Fprintf(h, "%016x", d)
		bestSum += res.Best.Value
		taskOuts = append(taskOuts, o)
	}
	tres.best = bestSum / float64(len(legs))
	tres.digest = h.Sum64()
	if prev, ok := b.digests[seed]; ok && prev != tres.digest {
		fmt.Printf("  CHECK FAILED: seed %d result digest %016x differs from an earlier run's %016x\n", seed, tres.digest, prev)
		for i := range taskOuts {
			taskOuts[i].checkFailed = true
		}
	} else {
		b.digests[seed] = tres.digest
	}
	b.outs = append(b.outs, taskOuts...)
	return tres, nil
}

// resultDigest hashes what a result decided: the winner's fingerprint
// and rotation, the baseline / random / best scores and the Pareto
// front. Same code and inputs give the same digest.
func resultDigest(res *diversify.OptimizeResult) uint64 {
	blob, err := json.Marshal(struct {
		BestFingerprint uint64
		BestRotation    string
		Baseline        diversify.OptimizeScore
		Random          diversify.OptimizeScore
		Best            diversify.OptimizeScore
		Pareto          []diversify.ParetoPoint
	}{res.BestFingerprint, res.BestRotation, res.Baseline, res.Random, res.Best, res.Pareto})
	if err != nil {
		// Scores are plain floats; only a NaN can fail to encode, and a NaN
		// score is itself a wrong result.
		return 0
	}
	h := fnv.New64a()
	h.Write(blob)
	return h.Sum64()
}

// checkResult applies the output checks to one optimize call and
// returns its outcome and digest.
func checkResult(cfg diversify.OptimizeConfig, res *diversify.OptimizeResult) (outcome, uint64) {
	o := outcome{degraded: res.Degraded != "", quarantined: res.Stats.Quarantined > 0}
	fail := func(format string, args ...any) {
		o.checkFailed = true
		fmt.Printf("  CHECK FAILED (%s seed %d budget %g): %s\n", cfg.Topology, cfg.Seed, cfg.Budget, fmt.Sprintf(format, args...))
	}
	if res.Best.Cost > cfg.Budget+1e-9 {
		fail("best cost %g exceeds budget %g", res.Best.Cost, cfg.Budget)
	}
	if res.Best.Value > res.Baseline.Value {
		fail("best value %g is worse than the baseline's %g", res.Best.Value, res.Baseline.Value)
	}
	if i, j, ok := dominatedPair(res.Pareto); ok {
		fail("Pareto point %d is dominated by point %d", i, j)
	}
	d := resultDigest(res)
	if d == 0 {
		fail("result does not encode (NaN score)")
	}
	return o, d
}

// dominatedPair finds a front point dominated by another one under the
// default front axes (cost, success, detection), all minimized.
func dominatedPair(front []diversify.ParetoPoint) (int, int, bool) {
	vec := func(p diversify.ParetoPoint) [3]float64 {
		// The success axis is the same scalar MinimizeSuccess minimizes.
		return [3]float64{p.Cost, p.PSuccess + 1e-3*p.FinalRatio, p.MeanDetLatency}
	}
	for i := range front {
		for j := range front {
			if i != j && dominates(vec(front[j]), vec(front[i])) {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

func dominates(a, b [3]float64) bool {
	strict := false
	for k := range a {
		if a[k] > b[k] {
			return false
		}
		if a[k] < b[k] {
			strict = true
		}
	}
	return strict
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// isFinite guards metric values before they are printed as JSON.
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
