// Package trace is the causal observability layer of the campaign
// engine: a sampled, structured per-replication event trace that shows
// WHICH attack paths a diversity assignment actually cut, not just the
// scalar outcomes the indicators aggregate.
//
// A Tracer is attached to a malware.Campaign (Campaign.SetTracer) and
// receives one compact Record per campaign event: seeding, propagation
// attempts with their success/blocked-by-variant outcome, privilege
// escalation, PLC injection and impairment, beacon/exfil activity,
// detections, and the rotation tick/evict/re-infect chronology. Every
// record carries the simulation time, the subject node, the causal
// parent (which compromised node's attempt produced the event), the
// attack stage and vector, and the variant involved.
//
// The discipline mirrors internal/telemetry's nil-sink contract: the
// campaign holds a *Tracer that may be nil and guards every emission
// with one nil-check, so an untraced replication pays zero allocations
// and — because capture never consumes an RNG draw — produces
// byte-identical outcomes to a traced one. Replication sampling
// (Sampled) hashes the replication stream's non-advancing digest, so
// WHICH replications are traced is deterministic per seed and
// independent of worker count.
//
// The aggregation layer (Explain, in explain.go) folds a set of traces
// into a deterministic explanation report: attack-path frequency trees,
// per-node choke-point attribution, detection timelines and rotation
// chronology.
package trace

import (
	"encoding/json"

	"diversify/internal/exploits"
)

// Kind classifies one trace record.
type Kind uint8

// Record kinds, in rough attack-progression order.
const (
	// KindSeed is one infected-media arrival at an entry node.
	KindSeed Kind = iota + 1
	// KindAttempt is a stage attempt that succeeded at sampling time
	// (its completion event is scheduled; a later KindInfected /
	// KindInjected with the same node confirms it landed).
	KindAttempt
	// KindBlocked is a stage attempt the target's placed variant
	// resisted — the choke-point signal.
	KindBlocked
	// KindFirewall is a lateral attempt dropped by a firewalled link.
	KindFirewall
	// KindInfected marks a node entering StateInfected.
	KindInfected
	// KindRoot marks a successful privilege escalation.
	KindRoot
	// KindInjected marks a PLC accepting malicious logic.
	KindInjected
	// KindImpaired marks a PLC driven with malicious control signals.
	KindImpaired
	// KindBeacon is one C2 beacon from a rooted node.
	KindBeacon
	// KindExfil is one successful exfiltration.
	KindExfil
	// KindDetect is one perceived detection event (Detail carries the
	// cause: CauseManifest, CauseBeacon or CauseExfil).
	KindDetect
	// KindRotTick is one rotation-policy tick.
	KindRotTick
	// KindRotate is one node rotation (Detail 1 = it evicted a live
	// compromise, 0 = it cycled a clean node).
	KindRotate
	// KindReinfect marks a cured node being compromised again.
	KindReinfect
)

var kindNames = [...]string{
	KindSeed:     "seed",
	KindAttempt:  "attempt",
	KindBlocked:  "blocked",
	KindFirewall: "firewall_blocked",
	KindInfected: "infected",
	KindRoot:     "root",
	KindInjected: "injected",
	KindImpaired: "impaired",
	KindBeacon:   "beacon",
	KindExfil:    "exfil",
	KindDetect:   "detect",
	KindRotTick:  "rotation_tick",
	KindRotate:   "rotate",
	KindReinfect: "reinfect",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its stable snake-case tag.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Detection causes carried in KindDetect records' Detail field.
const (
	CauseManifest = 1 // physical manifestation perceived
	CauseBeacon   = 2 // C2 beacon caught (DPI/firewall modulated)
	CauseExfil    = 3 // exfiltration traffic caught
)

// CauseName names a KindDetect Detail value.
func CauseName(detail float64) string {
	switch detail {
	case CauseManifest:
		return "manifest"
	case CauseBeacon:
		return "beacon"
	case CauseExfil:
		return "exfil"
	default:
		return "unknown"
	}
}

// Record is one compact trace event. Node and Parent are topology node
// ids (-1 = none): Parent is the causal link — the compromised node
// whose attempt produced this event. Stage, Vector and Variant identify
// what was tried, over which channel, against (or through) which placed
// variant. Detail is kind-specific: the sampled success probability for
// attempts and blocks, the detection cause for KindDetect, the
// evicted/clean flag for KindRotate, cumulative counters elsewhere.
type Record struct {
	T       float64            `json:"t"`
	Kind    Kind               `json:"kind"`
	Node    int32              `json:"node"`
	Parent  int32              `json:"parent"`
	Stage   exploits.Stage     `json:"-"`
	Vector  exploits.Vector    `json:"-"`
	Variant exploits.VariantID `json:"variant,omitempty"`
	Detail  float64            `json:"detail,omitempty"`
}

// Tracer records one replication's trace. It is attached to a campaign
// via Campaign.SetTracer and reused across replications: Reset recycles
// the record storage, so steady-state traced replications amortize to
// the slice growth of the longest replication seen.
//
// A Tracer belongs to one campaign (worker) at a time; it is not safe
// for concurrent use.
type Tracer struct {
	recs []Record
	// limit bounds the record count (0 = unlimited); dropped counts
	// emissions past the limit, so a truncated trace says so.
	limit   int
	dropped int
}

// NewTracer returns a tracer capped at limit records per replication
// (0 = unlimited).
func NewTracer(limit int) *Tracer { return &Tracer{limit: limit} }

// Reset clears the trace for the next replication, keeping the record
// storage.
func (t *Tracer) Reset() {
	t.recs = t.recs[:0]
	t.dropped = 0
}

// Emit appends one record (dropping it when the cap is reached).
func (t *Tracer) Emit(r Record) {
	if t.limit > 0 && len(t.recs) >= t.limit {
		t.dropped++
		return
	}
	t.recs = append(t.recs, r)
}

// Records returns the recorded trace as a view into tracer-owned
// storage that the next Reset recycles; callers that retain it across
// Resets must take Snapshot.
func (t *Tracer) Records() []Record { return t.recs }

// Dropped counts emissions discarded over the record cap.
func (t *Tracer) Dropped() int { return t.dropped }

// Snapshot returns a detached copy of the recorded trace.
func (t *Tracer) Snapshot() []Record {
	if len(t.recs) == 0 {
		return nil
	}
	out := make([]Record, len(t.recs))
	copy(out, t.recs)
	return out
}

// Trace is one sampled replication's captured records.
type Trace struct {
	// Rep is the replication index the trace was captured from.
	Rep int `json:"rep"`
	// Dropped counts records discarded over the tracer's cap.
	Dropped int      `json:"dropped,omitempty"`
	Records []Record `json:"records"`
}

// Sampled reports whether the replication whose RNG stream digests to
// digest is captured at the given sampling rate. The digest is
// non-advancing (rng.Rand.Digest), so the decision consumes no draw
// from the replication stream — traced and untraced runs see identical
// attack luck — and it is a pure function of the per-replication seed,
// so the sampled set is independent of worker count.
func Sampled(digest uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	// Top 53 bits to a uniform float in [0,1): the same digest always
	// lands on the same side of the rate for every worker layout.
	return float64(digest>>11)/(1<<53) < rate
}
