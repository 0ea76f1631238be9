// Command diversify-trace is the attack-trace toolchain: it captures
// causal replication traces from the campaign engine (internal/trace)
// and turns them into machine- and human-readable explanations of WHY a
// diversity assignment scored the way it did.
//
// Three modes:
//
//	dump     run a traced evaluation and emit one JSON object per trace
//	         record (JSONL) — the raw causal event stream for ad-hoc
//	         jq/awk analysis;
//	summary  run a traced evaluation and print the aggregated
//	         explanation report (attack paths, choke points, detection
//	         timeline, rotation chronology);
//	diff     run the placement optimizer twice — static placements only,
//	         then placements × rotation schedules — with trace capture
//	         on, and explain the moving-target dividend side by side:
//	         which paths the rotated winner still sees, which blocked
//	         choke points both share, and the eviction churn only the
//	         rotated schedule produces.
//
// Usage:
//
//	diversify-trace -mode dump -topo grid:60 -reps 8 -seed 7
//	diversify-trace -mode dump -rotate triggered:48 -sample 0.5 -o traces.jsonl
//	diversify-trace -mode summary -topo tiered -os-variants 3 -top-paths 15
//	diversify-trace -mode diff -topo grid:60 -budget 30 -reps 16 -seed 7
//
// Everything diversify-trace prints is deterministic for a given flag
// set: sampling hashes non-advancing per-replication stream digests, so
// the traced set — and therefore every byte of the output — is
// independent of -workers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"diversify"
	"diversify/internal/diversity"
	"diversify/internal/exploits"
	"diversify/internal/malware"
	"diversify/internal/rotation"
	"diversify/internal/topology"
	"diversify/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "diversify-trace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("diversify-trace", flag.ContinueOnError)
	var (
		mode      = fs.String("mode", "summary", "dump (JSONL records), summary (explanation report), or diff (static vs moving-target)")
		topoSel   = fs.String("topo", "tiered", "topology: tiered, powergrid, or grid:N[:regions]")
		threat    = fs.String("threat", "stuxnet", "threat profile: stuxnet, duqu, flame")
		kOS       = fs.Int("os-variants", 2, "OS variants spread across the plant (dump/summary modes)")
		rotate    = fs.String("rotate", "", "rotation schedules, comma-separated policy:period[xbatch] (dump/summary: first schedule runs; diff: the rotated search space, default triggered:48,adaptive:24x2)")
		horizon   = fs.Float64("horizon", 720, "observation window in hours")
		reps      = fs.Int("reps", 16, "Monte-Carlo replications")
		seed      = fs.Uint64("seed", 1, "RNG seed (fixes the sampled set and every output byte)")
		sample    = fs.Float64("sample", 1, "fraction of replications traced, in [0,1]")
		limit     = fs.Int("limit", 0, "record cap per traced replication (0 = default 8192)")
		workers   = fs.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS; never changes the output)")
		topPaths  = fs.Int("top-paths", 10, "attack-path table size in summary/diff reports")
		budget    = fs.Float64("budget", 30, "diff mode: diversification budget")
		strategy  = fs.String("strategy", "greedy", "diff mode: search strategy")
		objective = fs.String("objective", "foothold", "diff mode: minimized indicator (success, ratio, ttsf, foothold)")
		asJSON    = fs.Bool("json", false, "emit the report as JSON (summary/diff modes; dump is always JSONL)")
		outPath   = fs.String("o", "", "write output to this file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *reps < 0 || *workers < 0 || *limit < 0 || *topPaths < 0 || !(*horizon >= 0) || math.IsInf(*horizon, 1) {
		return fmt.Errorf("-reps %d, -workers %d, -limit %d, -top-paths %d and -horizon %v must be non-negative and finite",
			*reps, *workers, *limit, *topPaths, *horizon)
	}
	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	switch *mode {
	case "dump", "summary":
		return runEval(out, evalArgs{
			topo: *topoSel, threat: *threat, kOS: *kOS, rotate: *rotate,
			horizon: *horizon, reps: *reps, seed: *seed, sample: *sample,
			limit: *limit, workers: *workers, topPaths: *topPaths,
			dump: *mode == "dump", asJSON: *asJSON,
		})
	case "diff":
		return runDiff(out, diffArgs{
			topo: *topoSel, threat: *threat, rotate: *rotate,
			horizon: *horizon, reps: *reps, seed: *seed, sample: *sample,
			workers: *workers, topPaths: *topPaths, budget: *budget,
			strategy: *strategy, objective: *objective, asJSON: *asJSON,
		})
	default:
		return fmt.Errorf("unknown mode %q (want dump, summary or diff)", *mode)
	}
}

// nodeNamer maps trace node ids to topology names ("-" for the id-less
// rotation-tick records).
func nodeNamer(topo *topology.Topology) func(int32) string {
	names := make(map[int32]string, topo.Len())
	for _, n := range topo.Nodes() {
		names[int32(n.ID)] = n.Name
	}
	return func(id int32) string {
		if name, ok := names[id]; ok {
			return name
		}
		if id < 0 {
			return "-"
		}
		return fmt.Sprintf("node%d", id)
	}
}

type evalArgs struct {
	topo, threat, rotate string
	kOS                  int
	horizon              float64
	reps                 int
	seed                 uint64
	sample               float64
	limit, workers       int
	topPaths             int
	dump, asJSON         bool
}

// runEval runs one traced Monte-Carlo evaluation of a spread-variant
// assignment and emits either the raw records (dump) or the aggregated
// explanation (summary).
func runEval(out io.Writer, a evalArgs) error {
	topo, err := diversify.BuildTopology(a.topo)
	if err != nil {
		return err
	}
	profile, ok := diversify.ThreatProfiles()[a.threat]
	if !ok {
		return fmt.Errorf("unknown threat %q", a.threat)
	}
	cat := exploits.StuxnetCatalog()
	cfg := malware.Config{Topo: topo, Catalog: cat, Profile: profile}
	candidate := fmt.Sprintf("%s os-variants=%d", a.topo, a.kOS)
	// A placement pin wins over rotation (RotationControl.Rotate refuses
	// pinned classes), so the static spread only applies to an unrotated
	// run; with -rotate the schedule owns the OS population instead.
	if a.rotate == "" {
		assign := diversity.NewAssignment()
		if err := diversity.SpreadVariants(topo, assign, cat, exploits.ClassOS, a.kOS); err != nil {
			return err
		}
		cfg.Assign = assign.Func()
	} else {
		candidate = fmt.Sprintf("%s rotated", a.topo)
	}
	spec := malware.EvalSpec{
		Config:      cfg,
		Horizon:     a.horizon,
		Reps:        a.reps,
		Workers:     a.workers,
		Seed:        a.seed,
		TraceSample: a.sample,
		TraceLimit:  a.limit,
	}
	schedule := "static"
	if a.rotate != "" {
		sel := a.rotate
		if i := strings.IndexByte(sel, ','); i >= 0 {
			sel = sel[:i]
		}
		rspec, err := rotation.ParseSpec(sel)
		if err != nil {
			return err
		}
		schedule = rspec.Name()
		spec.NewRotator = func() malware.Rotator {
			eng, err := rotation.NewEngine(rspec, topo, cat, profile)
			if err != nil {
				panic(err)
			}
			return eng
		}
	}
	_, traces, err := malware.EvaluateTraced(spec)
	if err != nil {
		return err
	}
	name := nodeNamer(topo)
	if a.dump {
		return dumpJSONL(out, traces, name)
	}
	ex := trace.Explain(traces, trace.ExplainOpts{
		Candidate:    candidate,
		Rotation:     schedule,
		Replications: a.reps,
		TopPaths:     a.topPaths,
		NodeName:     name,
	})
	if a.asJSON {
		return writeJSON(out, ex)
	}
	renderExplanation(out, ex)
	return nil
}

// dumpRec is one JSONL line of dump mode: the trace.Record resolved to
// node names and stable enum tags.
type dumpRec struct {
	Rep     int     `json:"rep"`
	T       float64 `json:"t"`
	Kind    string  `json:"kind"`
	Node    string  `json:"node"`
	ID      int32   `json:"id"`
	Parent  string  `json:"parent,omitempty"`
	Stage   string  `json:"stage,omitempty"`
	Vector  string  `json:"vector,omitempty"`
	Variant string  `json:"variant,omitempty"`
	Detail  float64 `json:"detail,omitempty"`
}

func dumpJSONL(out io.Writer, traces []trace.Trace, name func(int32) string) error {
	enc := json.NewEncoder(out)
	for _, tr := range traces {
		for _, r := range tr.Records {
			d := dumpRec{
				Rep:     tr.Rep,
				T:       r.T,
				Kind:    r.Kind.String(),
				Node:    name(r.Node),
				ID:      r.Node,
				Variant: string(r.Variant),
				Detail:  r.Detail,
			}
			if r.Parent >= 0 {
				d.Parent = name(r.Parent)
			}
			if r.Stage != 0 {
				d.Stage = r.Stage.String()
			}
			if r.Vector != 0 {
				d.Vector = r.Vector.String()
			}
			if err := enc.Encode(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderExplanation prints one explanation report as a human table.
func renderExplanation(out io.Writer, ex trace.Explanation) {
	fmt.Fprintf(out, "candidate %s  schedule %s\n", ex.Candidate, ex.Rotation)
	fmt.Fprintf(out, "sampled %d/%d replications, %d records", ex.Sampled, ex.Replications, ex.Records)
	if ex.Dropped > 0 {
		fmt.Fprintf(out, " (%d dropped over cap)", ex.Dropped)
	}
	fmt.Fprintln(out)

	fmt.Fprintf(out, "\ntop attack paths (%d distinct", len(ex.Paths)+ex.MorePaths)
	if ex.MorePaths > 0 {
		fmt.Fprintf(out, ", showing %d", len(ex.Paths))
	}
	fmt.Fprintln(out, "):")
	for _, p := range ex.Paths {
		fmt.Fprintf(out, "  %4d× (%2d reps)  %s\n", p.Count, p.Reps, p.Path)
	}
	if len(ex.Paths) == 0 {
		fmt.Fprintln(out, "  (no compromises in the sampled replications)")
	}

	fmt.Fprintln(out, "\nblocked choke points (variant attribution):")
	for _, c := range ex.ChokePoints {
		kind := "node"
		if c.Firewall {
			kind = "link"
		}
		fmt.Fprintf(out, "  %4d blocked  %-4s %-18s %s\n", c.Blocked, kind, c.Node, c.Variant)
	}
	if len(ex.ChokePoints) == 0 {
		fmt.Fprintln(out, "  (nothing blocked)")
	}
	if ex.MoreChokePoints > 0 {
		fmt.Fprintf(out, "  … and %d more\n", ex.MoreChokePoints)
	}

	det := ex.Detection
	fmt.Fprintf(out, "\ndetection: %d/%d sampled replications, %d events", det.Detected, ex.Sampled, det.Events)
	if det.Detected > 0 {
		fmt.Fprintf(out, ", first at %.1fh mean", det.MeanFirst)
	}
	fmt.Fprintln(out)
	for _, c := range det.Causes {
		fmt.Fprintf(out, "  %4d× %s\n", c.Count, c.Cause)
	}

	rc := ex.RotationChurn
	fmt.Fprintf(out, "\nrotation churn: %d ticks, %d rotations, %d evictions, %d reinfections\n",
		rc.Ticks, rc.Rotations, rc.Evictions, rc.Reinfections)
	if rc.Evictions > 0 {
		fmt.Fprintf(out, "mean eviction time %.1fh; eviction timeline:\n", rc.MeanEviction)
	} else {
		fmt.Fprintln(out, "eviction timeline: (empty — static schedule or nothing evicted)")
	}
	for _, e := range rc.Chronology {
		fmt.Fprintf(out, "  rep %-3d t=%8.1fh  %-8s %s\n", e.Rep, e.T, e.Kind, e.Node)
	}
	if rc.Truncated > 0 {
		fmt.Fprintf(out, "  … and %d more events\n", rc.Truncated)
	}
}

type diffArgs struct {
	topo, threat, rotate string
	horizon              float64
	reps                 int
	seed                 uint64
	sample               float64
	workers, topPaths    int
	budget               float64
	strategy, objective  string
	asJSON               bool
}

// runDiff optimizes the same problem twice — placements only, then
// placements × rotation schedules — with trace capture enabled, and
// explains what the moving-target winner changed about the attack.
func runDiff(out io.Writer, a diffArgs) error {
	schedules := a.rotate
	if schedules == "" {
		schedules = "triggered:48,adaptive:24x2"
	}
	base := diversify.OptimizeConfig{
		Topology: a.topo, Threat: a.threat, Strategy: a.strategy,
		Objective: a.objective, Budget: a.budget,
		Reps: a.reps, HorizonHours: a.horizon, Seed: a.seed,
		Workers: a.workers, TraceSample: a.sample,
	}
	static, err := diversify.Optimize(base)
	if err != nil {
		return fmt.Errorf("static search: %w", err)
	}
	rotatedCfg := base
	for _, s := range strings.Split(schedules, ",") {
		if s = strings.TrimSpace(s); s != "" {
			rotatedCfg.Rotations = append(rotatedCfg.Rotations, s)
		}
	}
	rotated, err := diversify.Optimize(rotatedCfg)
	if err != nil {
		return fmt.Errorf("moving-target search: %w", err)
	}
	sx, ok := bestExplanation(static)
	if !ok {
		return fmt.Errorf("static search produced no explanation (sample %g too low for %d reps?)", a.sample, a.reps)
	}
	rx, ok := bestExplanation(rotated)
	if !ok {
		return fmt.Errorf("moving-target search produced no explanation (sample %g too low for %d reps?)", a.sample, a.reps)
	}
	if a.asJSON {
		return writeJSON(out, struct {
			Objective    string                      `json:"objective"`
			StaticScore  diversify.OptimizeScore     `json:"static_score"`
			RotatedScore diversify.OptimizeScore     `json:"rotated_score"`
			Static       diversify.AttackExplanation `json:"static"`
			Rotated      diversify.AttackExplanation `json:"rotated"`
		}{rotated.Objective, static.Best, rotated.Best, sx, rx})
	}
	fmt.Fprintf(out, "static optimum vs moving-target winner  (topo %s, threat %s, budget %.0f, objective %s, seed %d)\n",
		a.topo, a.threat, a.budget, rotated.Objective, a.seed)
	fmt.Fprintf(out, "  static : value %-10.4f foothold %-8.1f schedule %s\n",
		static.Best.Value, static.Best.MeanFoothold, static.BestRotation)
	fmt.Fprintf(out, "  rotated: value %-10.4f foothold %-8.1f schedule %s\n",
		rotated.Best.Value, rotated.Best.MeanFoothold, rotated.BestRotation)

	top := a.topPaths
	if top <= 0 {
		top = 10
	}
	fmt.Fprintln(out, "\ntop attack paths:")
	sideBySide(out, "static", "rotated",
		pathLines(sx, top), pathLines(rx, top))
	fmt.Fprintln(out, "\nblocked choke points:")
	sideBySide(out, "static", "rotated",
		chokeLines(sx, top), chokeLines(rx, top))

	fmt.Fprintf(out, "\nrotation churn (rotated winner only): %d rotations, %d evictions, %d reinfections\n",
		rx.RotationChurn.Rotations, rx.RotationChurn.Evictions, rx.RotationChurn.Reinfections)
	if rx.RotationChurn.Evictions > 0 {
		fmt.Fprintf(out, "eviction timeline (mean eviction at %.1fh):\n", rx.RotationChurn.MeanEviction)
	} else {
		fmt.Fprintln(out, "eviction timeline: (no evictions in the sampled replications)")
	}
	for _, e := range rx.RotationChurn.Chronology {
		if e.Kind == "rotate" {
			continue
		}
		fmt.Fprintf(out, "  rep %-3d t=%8.1fh  %-8s %s\n", e.Rep, e.T, e.Kind, e.Node)
	}
	fmt.Fprintf(out, "\ndetection: static %d/%d sampled, rotated %d/%d sampled\n",
		sx.Detection.Detected, sx.Sampled, rx.Detection.Detected, rx.Sampled)
	return nil
}

// bestExplanation picks the "best"-candidate explanation from a result.
func bestExplanation(res *diversify.OptimizeResult) (diversify.AttackExplanation, bool) {
	for _, ex := range res.Explanations {
		if ex.Candidate == "best" {
			return ex, true
		}
	}
	return diversify.AttackExplanation{}, false
}

func pathLines(ex diversify.AttackExplanation, top int) []string {
	var lines []string
	for i, p := range ex.Paths {
		if i >= top {
			break
		}
		lines = append(lines, fmt.Sprintf("%3d× %s", p.Count, p.Path))
	}
	if len(lines) == 0 {
		lines = append(lines, "(none)")
	}
	return lines
}

func chokeLines(ex diversify.AttackExplanation, top int) []string {
	var lines []string
	for i, c := range ex.ChokePoints {
		if i >= top {
			break
		}
		kind := ""
		if c.Firewall {
			kind = " [fw]"
		}
		lines = append(lines, fmt.Sprintf("%3d blocked %s (%s)%s", c.Blocked, c.Node, c.Variant, kind))
	}
	if len(lines) == 0 {
		lines = append(lines, "(none)")
	}
	return lines
}

// sideBySide renders two line lists in two columns.
func sideBySide(out io.Writer, lh, rh string, left, right []string) {
	width := len(lh)
	for _, l := range left {
		if len(l) > width {
			width = len(l)
		}
	}
	fmt.Fprintf(out, "  %-*s | %s\n", width, lh, rh)
	n := len(left)
	if len(right) > n {
		n = len(right)
	}
	for i := 0; i < n; i++ {
		l, r := "", ""
		if i < len(left) {
			l = left[i]
		}
		if i < len(right) {
			r = right[i]
		}
		fmt.Fprintf(out, "  %-*s | %s\n", width, l, r)
	}
}

func writeJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
