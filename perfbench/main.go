// Command perfbench is the repository's end-to-end benchmark: it times
// diversify.OptimizeContext, the placement search the paper's step 4
// runs, on a few fixed workloads, checks every result, and with --trace 1
// breaks one run down by layer.
//
// Usage (from the repository root, after building with perfbench/run.sh):
//
//	perfbench --workload saturated-grid200 --seed 1 --seconds 20 --trace 0
//
// Each workload runs as a closed loop: one caller, one optimize call at
// a time, with evaluation workers pinned to 2. The last line of standard
// output is one JSON object with the verdict and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"diversify"
	"diversify/internal/exploits"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %d", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	buildDir := os.Getenv("PERFBENCH_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	b := &bench{wl: wl, dir: work, catalog: exploits.StuxnetCatalog(), digests: map[uint64]uint64{}, fills: map[uint64]string{}}
	fmt.Printf("workload %s  seed %d  seconds %d  trace %d\n", wl.name, *seed, *seconds, *traced)
	fmt.Printf("  spec: %s, workers=%d, %d optimizer seed(s) per cycle\n", wl.spec, evalWorkers, wl.seeds)
	ctx := context.Background()
	// The traced run uses the cycle's first seed only.
	fillSeeds := []uint64{derivedSeed(*seed, 0)}
	for k := 1; k < wl.seeds && *traced == 0; k++ {
		fillSeeds = append(fillSeeds, derivedSeed(*seed, k))
	}
	if err := b.fillStores(ctx, fillSeeds); err != nil {
		return err
	}
	if err := b.warmUp(ctx, derivedSeed(*seed, 0)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	budget := time.Duration(*seconds) * time.Second
	var metrics map[string]metric
	if *traced == 0 {
		metrics, err = b.endToEnd(ctx, *seed, budget)
	} else {
		spansPath := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, *seed))
		metrics, err = b.perLayer(ctx, *seed, budget, spansPath)
	}
	if err != nil {
		return err
	}
	failed, attempted, frac := failedFrac(b.outs)
	fmt.Printf("  %-34s %14.6g %-6s (%d of %d calls)\n", "failed_frac", frac, "1", failed, attempted)
	if attempted == 0 {
		return fmt.Errorf("no optimize call was attempted")
	}
	for k, m := range metrics {
		if !isFinite(m.Value) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	blob, err := json.Marshal(report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// endToEnd runs whole cycles untraced until the time budget would be
// exceeded (at least one cycle) and reports the end-to-end metrics.
func (b *bench) endToEnd(ctx context.Context, seed uint64, budget time.Duration) (map[string]metric, error) {
	// bests holds the first cycle's best values in slot order, so their
	// mean sums in the same order on every run.
	var runS, allocMB, setupS, bests []float64
	start := time.Now()
	for cycle := 0; ; cycle++ {
		cstart := time.Now()
		for k := 0; k < b.wl.seeds; k++ {
			s := derivedSeed(seed, k)
			for range setupRepeats {
				su, err := b.measureSetup(b.wl.legs(s), b.fills[s])
				if err != nil {
					return nil, err
				}
				setupS = append(setupS, su.totalS)
			}
			t, err := b.runTask(ctx, s, nil)
			if err != nil {
				return nil, err
			}
			runS = append(runS, t.runS)
			allocMB = append(allocMB, t.allocMB)
			if cycle == 0 {
				bests = append(bests, t.best)
				fmt.Printf("  seed %-20d digest %016x  best %.6g  %.3f s\n", s, t.digest, t.best, t.runS)
			}
		}
		if time.Since(start)+time.Since(cstart) > budget {
			break
		}
	}
	fmt.Printf("  result digest %016x (over the first cycle's seeds, in order)\n", b.cycleDigest(seed))
	m := map[string]metric{
		"run_s":       {median(runS), "s"},
		"setup_s":     {median(setupS), "s"},
		"best_value":  {mean(bests), "objective"},
		"alloc_mb":    {median(allocMB), "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	tl := tailPercentile(runS)
	fmt.Printf("  %-34s %14.6g %-6s median of %d tasks; %s\n", "run_s", m["run_s"].Value, "s", len(runS), tailString(tl, "s"))
	fmt.Printf("  %-34s %14.6g %-6s median of %d set-ups; %s\n", "setup_s", m["setup_s"].Value, "s", len(setupS), tailString(tailPercentile(setupS), "s"))
	fmt.Printf("  %-34s %14.6g %-6s mean over %d optimizer seeds\n", "best_value", m["best_value"].Value, "", len(bests))
	fmt.Printf("  %-34s %14.6g %-6s median per task\n", "alloc_mb", m["alloc_mb"].Value, "MB")
	fmt.Printf("  %-34s %14.6g %-6s process peak\n", "peak_rss_mb", m["peak_rss_mb"].Value, "MB")
	return m, nil
}

func tailString(t tail, unit string) string {
	if !t.OK {
		return fmt.Sprintf("no tail percentile with %d samples beyond it (n=%d)", tailBeyond, t.N)
	}
	return fmt.Sprintf("p%.1f %.6g %s (n=%d)", t.Pct, t.Value, unit, t.N)
}

// regimeFactor is how much costlier than the microbenchmark regime a
// replayed replication must be to count as the optimizer's regime (the
// two differ by about 70x in time and 40x in allocations at grid:200).
const regimeFactor = 10.0

// cycleDigest combines the digests of one cycle's seeds in slot order,
// so two commits can be compared by one line.
func (b *bench) cycleDigest(seed uint64) uint64 {
	h := fnv.New64a()
	for k := 0; k < b.wl.seeds; k++ {
		fmt.Fprintf(h, "%016x", b.digests[derivedSeed(seed, k)])
	}
	return h.Sum64()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// perLayer alternates untraced and traced tasks on the cycle's first
// optimizer seed until the time budget would be exceeded (at least one
// pair), then derives the per-layer metrics from the last traced task
// and a replay of its last call.
func (b *bench) perLayer(ctx context.Context, seed uint64, budget time.Duration, spansPath string) (map[string]metric, error) {
	origin := time.Now()
	tr := newTracer(origin)
	s := derivedSeed(seed, 0)
	var plain, tracedS []float64
	var last taskResult
	firstCall := 0
	for {
		pstart := time.Now()
		u, err := b.runTask(ctx, s, nil)
		if err != nil {
			return nil, err
		}
		_, calls := tr.snapshot()
		firstCall = len(calls)
		t, err := b.runTask(ctx, s, tr)
		if err != nil {
			return nil, err
		}
		plain, tracedS = append(plain, u.runS), append(tracedS, t.runS)
		last = t
		if time.Since(origin)+time.Since(pstart) > budget {
			break
		}
	}
	legs := len(last.cfgs)
	lastRes := last.results[legs-1]
	if lastRes == nil {
		return nil, fmt.Errorf("the traced task's last call failed; nothing to replay")
	}
	lastCfg := last.cfgs[legs-1]
	_, allCalls := tr.snapshot()
	calls := allCalls[firstCall:]
	// Timing distributions pool every traced task (all run the same
	// seed); counts come from the last one.
	var evalMS []float64
	for _, c := range allCalls {
		evalMS = append(evalMS, c.evalMS...)
	}
	replayID := fmt.Sprintf("%s/seed-%d/replay", b.wl.name, s)
	rr, err := replay(lastCfg, lastRes, tr, replayID)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	su, err := b.measureSetup(last.cfgs, b.fills[s])
	if err != nil {
		return nil, err
	}
	spans, _ := tr.snapshot()

	// Event-stream tallies, summed over the task's calls.
	var rounds, evals, hits, served, simulated, storePuts, retries, quarantined, ckpts, ckptBytes, reps int
	var ckptMS float64
	runs := map[string]bool{replayID: true}
	for _, c := range calls {
		f := c.finished
		rounds += c.rounds
		evals += f.Evaluations
		hits += f.CacheHits
		served += c.served
		simulated += len(c.evalMS)
		storePuts += f.StorePuts
		retries += f.Retries
		quarantined += f.Quarantined
		ckpts += c.ckpts
		ckptMS += c.ckptMS
		ckptBytes += c.ckptB
		reps += c.reps
		runs[spans[c.span-1].RunID] = true
	}
	// Self times of the calls: wall time splits exactly into evaluation,
	// checkpoint and the rest (the strategy's own time).
	children := childrenOf(spans)
	var wallS, strategyS, evalS, ckptS float64
	for _, c := range calls {
		call := spans[c.span-1]
		wallS += float64(call.dur()) / 1e9
		strategyS += float64(selfTime(call, children[call.ID])) / 1e9
		for _, ch := range children[call.ID] {
			switch ch.Name {
			case "optimize.eval":
				evalS += float64(clipped(call, ch)) / 1e9
			case "optimize.checkpoint":
				ckptS += float64(clipped(call, ch)) / 1e9
			}
		}
	}
	replayRepS := mean(rr.repMS) / 1e3
	evalTail := tailPercentile(evalMS)
	repTail := tailPercentile(rr.repMS)
	m := map[string]metric{
		"topology.build_ms":              {su.topoMS, "ms"},
		"topology.nodes":                 {float64(su.nodes), "count"},
		"optimize.strategy.self_s":       {strategyS, "s"},
		"optimize.strategy.rounds":       {float64(rounds), "count"},
		"optimize.score.calls":           {float64(evals + hits), "count"},
		"optimize.memo.hit_ratio":        {ratio(float64(hits), float64(evals+hits)), "ratio"},
		"evalstore.hits":                 {float64(served), "count"},
		"evalstore.puts":                 {float64(storePuts), "count"},
		"evalstore.warm_ratio":           {ratio(float64(served), float64(served+simulated)), "ratio"},
		"evalstore.open_ms":              {su.openMS, "ms"},
		"evalstore.bytes":                {last.storeBytes, "B"},
		"optimize.checkpoint.writes":     {float64(ckpts), "count"},
		"optimize.checkpoint.ms":         {ckptMS, "ms"},
		"optimize.checkpoint.bytes":      {float64(ckptBytes), "B"},
		"optimize.eval.self_s":           {evalS, "s"},
		"optimize.eval.candidates":       {float64(simulated), "count"},
		"optimize.eval.miss_ms_p50":      {median(evalMS), "ms"},
		"optimize.eval.miss_ms_tail":     {evalTail.Value, "ms"},
		"optimize.eval.candidates_per_s": {ratio(float64(simulated), evalS), "1/s"},
		"optimize.pool.reps":             {float64(reps), "count"},
		"optimize.pool.reps_per_s":       {ratio(float64(reps), evalS), "1/s"},
		"optimize.pool.efficiency":       {ratio(float64(reps)*replayRepS, evalWorkers*evalS), "ratio"},
		"optimize.pool.retries":          {float64(retries), "count"},
		"optimize.pool.quarantined":      {float64(quarantined), "count"},
		"malware.rep_ms_p50":             {median(rr.repMS), "ms"},
		"malware.rep_ms_tail":            {repTail.Value, "ms"},
		"malware.allocs_per_rep":         {rr.allocsPerRep, "count"},
		"malware.bytes_per_rep":          {rr.bytesPerRep, "B"},
		"malware.records_per_rep":        {rr.recordsPerRep, "count"},
		"malware.attempts_per_rep":       {rr.attemptsPerRep, "count"},
		"malware.attempt_success_ratio":  {ratio(rr.landedPerRep, rr.attemptsPerRep), "ratio"},
		"malware.infections_per_rep":     {rr.infectionsPerRep, "count"},
		"malware.rep_ms_168h":            {rr.rep168MS, "ms"},
		"malware.allocs_per_rep_168h":    {rr.allocs168, "count"},
		"exploits.lookups_per_rep":       {rr.lookupsPerRep, "count"},
		"exploits.lookup_ns":             {rr.lookupNS, "ns"},
		"des.ns_per_event":               {rr.desNSPerEvent, "ns"},
		"rotation.ticks_per_rep":         {rr.rotTicksPerRep, "count"},
		"rotation.rotations_per_rep":     {rr.rotationsPerRep, "count"},
		"rotation.reinfections_per_rep":  {rr.reinfectPerRep, "count"},
		"rotation.overhead_ratio":        {rr.overheadRatio, "ratio"},
		"runtime.gc_cycles":              {last.gcCycles, "count"},
		"runtime.gc_pause_ms":            {last.gcPauseMS, "ms"},
		"bench.trace_overhead_ratio":     {ratio(median(tracedS), median(plain)), "ratio"},
	}

	fmt.Printf("  traced task: %d call(s), %.3f s wall; %d untraced / %d traced tasks timed\n", len(calls), wallS, len(plain), len(tracedS))
	printLayerTable(layerTable(spans, runs))
	residual := wallS - (strategyS + evalS + ckptS)
	fmt.Printf("  self-time sum: strategy %.6f + eval %.6f + checkpoint %.6f = %.6f s of %.6f s wall (residual %.2e s)\n",
		strategyS, evalS, ckptS, strategyS+evalS+ckptS, wallS, residual)
	share := ratio(evalS, wallS)
	wantMost := b.wl.name != "warm-sweep-grid60"
	verdict := "holds"
	if (share > 0.5) != wantMost {
		verdict = "DOES NOT HOLD"
	}
	want := "most"
	if !wantMost {
		want = "a minority"
	}
	fmt.Printf("  layer check: evaluation is %.1f%% of the run; expected %s: %s\n", 100*share, want, verdict)
	if !rr.faithful {
		fmt.Println("  replay check: the replayed success rates differ from the optimizer's (see above)")
	}
	regime := "holds"
	if rr.baseRepMS < regimeFactor*rr.rep168MS || rr.baseAllocs < regimeFactor*rr.allocs168 {
		regime = "DOES NOT HOLD"
	}
	fmt.Printf("  regime: baseline replication at %g h p50 %.4f ms, %.0f allocs; at %d h (microbench) p50 %.4f ms, %.0f allocs; %g h at least %gx the %d h figures: %s\n",
		horizonOf(lastCfg), rr.baseRepMS, rr.baseAllocs, microbenchHorizon, rr.rep168MS, rr.allocs168,
		horizonOf(lastCfg), regimeFactor, microbenchHorizon, regime)
	fmt.Printf("  %-34s %14.6g %-6s (%d hits / %d score calls)\n", "optimize.memo.hit_ratio", m["optimize.memo.hit_ratio"].Value, "ratio", hits, evals+hits)
	fmt.Printf("  %-34s %14.6g %-6s (%d store serves / %d misses)\n", "evalstore.warm_ratio", m["evalstore.warm_ratio"].Value, "ratio", served, served+simulated)
	fmt.Printf("  %-34s %14.6g %-6s (%.1f landed / %.1f attempts per rep)\n", "malware.attempt_success_ratio", m["malware.attempt_success_ratio"].Value, "ratio", rr.landedPerRep, rr.attemptsPerRep)
	fmt.Printf("  %-34s %14.6g %-6s (replayed %d-event stream, window %d)\n", "des.ns_per_event", rr.desNSPerEvent, "ns", rr.desEvents, desWindow)
	fmt.Printf("  %-34s %14.6g %-6s (%d reps x replayed baseline/winner mean %.4f ms / (%d workers x %.3f s evaluating))\n",
		"optimize.pool.efficiency", m["optimize.pool.efficiency"].Value, "ratio", reps, mean(rr.repMS), evalWorkers, evalS)
	fmt.Printf("  optimize.eval.miss_ms tail: %s; malware.rep_ms tail: %s\n", tailString(evalTail, "ms"), tailString(repTail, "ms"))
	for _, k := range sortedKeys(m) {
		fmt.Printf("  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	if err := tr.writeJSON(spansPath); err != nil {
		return nil, err
	}
	fmt.Printf("  spans: %s\n", spansPath)
	return m, nil
}

func horizonOf(cfg diversify.OptimizeConfig) float64 {
	if cfg.HorizonHours > 0 {
		return cfg.HorizonHours
	}
	return 720
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
