// Package diversity models the design lever under study: assignments of
// component variants to nodes, diversity metrics over those assignments,
// a procurement/training cost model, and the placement strategies the
// paper's case study compares (the claim that "a small, strategically
// distributed, number of highly attack-resilient components can
// significantly lower the chance of bringing a successful attack").
package diversity

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"

	"diversify/internal/exploits"
	"diversify/internal/rng"
	"diversify/internal/topology"
)

// ErrBadAssignment reports an invalid assignment operation.
var ErrBadAssignment = errors.New("diversity: invalid assignment")

// Assignment maps (node, class) to the variant installed there. It
// overlays a topology's defaults: nodes absent from the overlay keep
// their built-in components.
type Assignment struct {
	overlay map[topology.NodeID]map[exploits.Class]exploits.VariantID
}

// NewAssignment returns an empty overlay.
func NewAssignment() *Assignment {
	return &Assignment{overlay: map[topology.NodeID]map[exploits.Class]exploits.VariantID{}}
}

// Set installs a variant for a node's component class.
func (a *Assignment) Set(n topology.NodeID, c exploits.Class, v exploits.VariantID) *Assignment {
	m, ok := a.overlay[n]
	if !ok {
		m = map[exploits.Class]exploits.VariantID{}
		a.overlay[n] = m
	}
	m[c] = v
	return a
}

// SetClassEverywhere installs a variant for a class on every node of the
// topology that carries that class by default.
func (a *Assignment) SetClassEverywhere(t *topology.Topology, c exploits.Class, v exploits.VariantID) *Assignment {
	for _, n := range t.Nodes() {
		if _, has := n.Components[c]; has {
			a.Set(n.ID, c, v)
		}
	}
	return a
}

// Lookup resolves the assignment for (node, class); ok is false when the
// overlay has no entry (callers fall back to topology defaults).
func (a *Assignment) Lookup(n topology.NodeID, c exploits.Class) (exploits.VariantID, bool) {
	if m, ok := a.overlay[n]; ok {
		if v, ok := m[c]; ok {
			return v, true
		}
	}
	return "", false
}

// Clone returns a deep copy.
func (a *Assignment) Clone() *Assignment {
	out := NewAssignment()
	for n, m := range a.overlay {
		for c, v := range m {
			out.Set(n, c, v)
		}
	}
	return out
}

// Func adapts the assignment to the callback shape the malware campaign
// consumes.
func (a *Assignment) Func() func(n topology.Node, c exploits.Class) (exploits.VariantID, bool) {
	return func(n topology.Node, c exploits.Class) (exploits.VariantID, bool) {
		return a.Lookup(n.ID, c)
	}
}

// EffectiveVariant resolves the variant a node runs for a class under the
// overlay, falling back to the node's defaults.
func EffectiveVariant(a *Assignment, n topology.Node, c exploits.Class) (exploits.VariantID, bool) {
	if a != nil {
		if v, ok := a.Lookup(n.ID, c); ok {
			return v, true
		}
	}
	v, ok := n.Components[c]
	return v, ok
}

// Profile summarizes the variant mix of one component class across a
// topology under an assignment.
type Profile struct {
	Class  exploits.Class
	Counts map[exploits.VariantID]int
	Total  int
}

// ProfileOf computes the class profile across nodes carrying the class.
func ProfileOf(t *topology.Topology, a *Assignment, c exploits.Class) Profile {
	p := Profile{Class: c, Counts: map[exploits.VariantID]int{}}
	for _, n := range t.Nodes() {
		v, ok := EffectiveVariant(a, n, c)
		if !ok {
			continue
		}
		p.Counts[v]++
		p.Total++
	}
	return p
}

// Distinct returns the number of distinct variants in use.
func (p Profile) Distinct() int { return len(p.Counts) }

// SimpsonIndex returns 1 − Σ pᵢ² (probability two random nodes differ).
// The sum runs in variant-ID order: float addition is not associative,
// so map order would leak into the low bits.
func (p Profile) SimpsonIndex() float64 {
	if p.Total == 0 {
		return 0
	}
	s := 0.0
	for _, id := range slices.Sorted(maps.Keys(p.Counts)) {
		q := float64(p.Counts[id]) / float64(p.Total)
		s += q * q
	}
	return 1 - s
}

// CostModel prices a diversity configuration: each distinct variant
// beyond the first per class costs a platform adoption fee, and every
// node running a non-default variant costs a per-node migration fee.
type CostModel struct {
	PlatformCost float64 // per extra distinct variant per class
	NodeCost     float64 // per node deviating from the topology default
}

// Cost evaluates the model over the classes present in the topology.
// Fees are summed in ascending class order, so the same configuration
// always costs the same bits.
func (cm CostModel) Cost(t *topology.Topology, a *Assignment) float64 {
	classes := make([]exploits.Class, 0, int(exploits.ClassDevice))
	for _, n := range t.Nodes() {
		for c := range n.Components {
			if !slices.Contains(classes, c) {
				classes = append(classes, c)
			}
		}
	}
	slices.Sort(classes)
	total := 0.0
	for _, c := range classes {
		p := ProfileOf(t, a, c)
		if d := p.Distinct(); d > 1 {
			total += float64(d-1) * cm.PlatformCost
		}
	}
	if a != nil {
		nodes := t.Nodes()
		moved := 0
		for id, m := range a.overlay {
			if id < 0 || int(id) >= len(nodes) {
				continue
			}
			for c, v := range m {
				if def, ok := nodes[id].Components[c]; ok && v != def {
					moved++
				}
			}
		}
		// One addition per migrated component, as the fees accrue.
		for ; moved > 0; moved-- {
			total += cm.NodeCost
		}
	}
	return total
}

// Placement strategies for hardened ("highly attack-resilient")
// components, compared by experiment E7. Every strategy takes an
// eligibility predicate (nil = every node carrying the class); the case
// study uses it to restrict placement to the monitoring-and-control
// system proper (hardening the attacker's entry PC is not a defense the
// paper considers).

// PlaceRandom hardens k random eligible nodes carrying the class,
// assigning the resilient variant. Returns the chosen node IDs.
func PlaceRandom(t *topology.Topology, a *Assignment, c exploits.Class,
	resilient exploits.VariantID, k int, r *rng.Rand, filter func(topology.Node) bool) []topology.NodeID {
	var eligible []topology.NodeID
	for _, n := range t.Nodes() {
		if _, has := n.Components[c]; !has {
			continue
		}
		if filter != nil && !filter(n) {
			continue
		}
		eligible = append(eligible, n.ID)
	}
	if k > len(eligible) {
		k = len(eligible)
	}
	perm := r.Perm(len(eligible))
	chosen := make([]topology.NodeID, 0, k)
	for i := 0; i < k; i++ {
		id := eligible[perm[i]]
		a.Set(id, c, resilient)
		chosen = append(chosen, id)
	}
	slices.Sort(chosen)
	return chosen
}

// PlaceStrategic hardens the k most path-central eligible nodes carrying
// the class: articulation points first (every attack path through them),
// then by on-path score between entry nodes and targets. This is the
// paper's "strategically distributed" policy made concrete.
func PlaceStrategic(t *topology.Topology, a *Assignment, c exploits.Class,
	resilient exploits.VariantID, k int, entries, targets []topology.NodeID,
	filter func(topology.Node) bool) []topology.NodeID {
	type scored struct {
		id    topology.NodeID
		score float64
	}
	cuts := map[topology.NodeID]bool{}
	for _, id := range t.ArticulationPoints() {
		cuts[id] = true
	}
	pathScores := t.OnPathScores(entries, targets)
	var candidates []scored
	for _, n := range t.Nodes() {
		if _, has := n.Components[c]; !has {
			continue
		}
		if filter != nil && !filter(n) {
			continue
		}
		s := float64(pathScores[n.ID])
		if cuts[n.ID] {
			s += 1000 // articulation points dominate
		}
		candidates = append(candidates, scored{id: n.ID, score: s})
	}
	slices.SortFunc(candidates, func(a, b scored) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	if k > len(candidates) {
		k = len(candidates)
	}
	chosen := make([]topology.NodeID, 0, k)
	for i := 0; i < k; i++ {
		a.Set(candidates[i].id, c, resilient)
		chosen = append(chosen, candidates[i].id)
	}
	slices.Sort(chosen)
	return chosen
}

// PlaceWorst hardens the k least path-central eligible nodes (leaf-most).
// The anti-strategy used as the E7 lower baseline.
func PlaceWorst(t *topology.Topology, a *Assignment, c exploits.Class,
	resilient exploits.VariantID, k int, entries, targets []topology.NodeID,
	filter func(topology.Node) bool) []topology.NodeID {
	cuts := map[topology.NodeID]bool{}
	for _, id := range t.ArticulationPoints() {
		cuts[id] = true
	}
	pathScores := t.OnPathScores(entries, targets)
	type scored struct {
		id    topology.NodeID
		score float64
	}
	var candidates []scored
	for _, n := range t.Nodes() {
		if _, has := n.Components[c]; !has {
			continue
		}
		if filter != nil && !filter(n) {
			continue
		}
		s := float64(pathScores[n.ID])
		if cuts[n.ID] {
			s += 1000
		}
		candidates = append(candidates, scored{id: n.ID, score: s})
	}
	slices.SortFunc(candidates, func(a, b scored) int {
		if c := cmp.Compare(a.score, b.score); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	if k > len(candidates) {
		k = len(candidates)
	}
	chosen := make([]topology.NodeID, 0, k)
	for i := 0; i < k; i++ {
		a.Set(candidates[i].id, c, resilient)
		chosen = append(chosen, candidates[i].id)
	}
	slices.Sort(chosen)
	return chosen
}

// SpreadVariants distributes up to k distinct variants of a class
// round-robin across the nodes carrying it (the "k OS variants" knob of
// experiments E2/E4). It returns an error when the catalog offers fewer
// than k variants of the class.
func SpreadVariants(t *topology.Topology, a *Assignment, cat *exploits.Catalog,
	c exploits.Class, k int) error {
	if k <= 0 {
		return fmt.Errorf("%w: k = %d", ErrBadAssignment, k)
	}
	variants := cat.VariantsOf(c)
	if len(variants) < k {
		return fmt.Errorf("%w: catalog has %d variants of %v, need %d",
			ErrBadAssignment, len(variants), c, k)
	}
	// Prefer the least resilient k variants so the effect measured is
	// diversity itself, not hardening: sort by resilience ascending, then
	// ID for determinism.
	slices.SortFunc(variants, func(a, b exploits.Variant) int {
		if c := cmp.Compare(a.Resilience, b.Resilience); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	idx := 0
	for _, n := range t.Nodes() {
		if _, has := n.Components[c]; !has {
			continue
		}
		a.Set(n.ID, c, variants[idx%k].ID)
		idx++
	}
	return nil
}
