package core

import (
	"encoding/hex"
	"encoding/json"
	"io"
	"sort"
	"sync"

	"accpar/internal/hardware"
)

// This file is the search decision audit: an opt-in recorder
// (Options.Audit) that captures, per subproblem the hierarchical search
// visits, the candidate types it weighed with their modelled costs, the
// winner, why the losers died, and where the solution came from (cold
// compute, per-search memo, shared cache). Like the
// tracer, the audit observes and never decides: plans are byte-identical
// with the recorder attached or not, which TestAuditEquivalence enforces
// the same way TestObservationEquivalence does for spans.

// Subproblem provenance values (AuditSubproblem.Provenance).
const (
	// ProvenanceCold marks a subproblem solved from scratch.
	ProvenanceCold = "cold"
	// ProvenanceMemoHit marks a subproblem answered by an entry this
	// search solved or served.
	ProvenanceMemoHit = "memo-hit"
	// ProvenanceSharedCacheHit marks a subproblem answered by an entry of
	// the cross-run cache (Options.Cache) another search solved or served.
	ProvenanceSharedCacheHit = "shared-cache-hit"
)

// Candidate outcome reasons (AuditCandidate.Reason).
const (
	// ReasonWon marks the adopted type.
	ReasonWon = "won"
	// ReasonCostDominated marks a loser that simply cost more under the
	// objective at the adopted ratio.
	ReasonCostDominated = "cost-dominated"
	// ReasonLambdaPenalized marks a loser that was cheaper on raw cost but
	// lost to the λ residency penalty of the constrained ladder.
	ReasonLambdaPenalized = "lambda-penalized"
)

// Memory-constraint outcomes (AuditMemory.Outcome).
const (
	// OutcomeCapacityFloorPruned: the admissible capacity floor proved no
	// reachable plan fits this subtree, so the ladder was skipped — the
	// in-DP lower-bound prune.
	OutcomeCapacityFloorPruned = "capacity-floor-pruned"
	// OutcomeLambdaPenalized: a λ-penalized re-solve produced the first
	// fitting candidate.
	OutcomeLambdaPenalized = "lambda-penalized"
	// OutcomeCapacityRatio: the penalized types at the
	// capacity-proportional ratio produced the first fitting candidate.
	OutcomeCapacityRatio = "capacity-ratio"
	// OutcomeEnumerated: the exhaustive type-vector enumeration produced
	// the first fitting candidate.
	OutcomeEnumerated = "enumerated"
	// OutcomeBestEffortOverflow: nothing reachable fits; the attempt with
	// the smallest peak overflow was kept.
	OutcomeBestEffortOverflow = "best-effort-overflow"
)

// AuditCandidate is one partition type weighed for one unit at one split.
type AuditCandidate struct {
	// Type is the candidate partition type (I/II/III).
	Type string `json:"type"`
	// CostSeconds is the unit's modelled DP cost under this type at the
	// adopted ratio (bytes under the comm-only objective).
	CostSeconds float64 `json:"cost_seconds"`
	// Reason is why the candidate won or died.
	Reason string `json:"reason"`
}

// AuditUnit is one weighted layer's decision at one split.
type AuditUnit struct {
	// Unit is the layer name.
	Unit string `json:"unit"`
	// Chosen is the adopted type.
	Chosen string `json:"chosen"`
	// Candidates lists every allowed type with its cost and fate.
	Candidates []AuditCandidate `json:"candidates"`
}

// AuditMemory describes how the memory constraint shaped one split.
type AuditMemory struct {
	// Outcome is one of the Outcome* constants.
	Outcome string `json:"outcome"`
	// NeedBytes and FloorBytes carry the capacity-floor numbers when the
	// subtree was pruned: aggregate residency needed vs the admissible
	// capacity floor.
	NeedBytes  int64 `json:"need_bytes,omitempty"`
	FloorBytes int64 `json:"floor_bytes,omitempty"`
	// LambdaMult is the penalty multiplier of the winning ladder rung.
	LambdaMult float64 `json:"lambda_mult,omitempty"`
}

// AuditSubproblem is the decision record of one hierarchical subproblem.
type AuditSubproblem struct {
	// Level and Group locate the hardware subtree.
	Level int    `json:"level"`
	Group string `json:"group"`
	// Key is a hex prefix of the content-addressed subproblem key, so two
	// visits to the same (subtree, dims) subproblem — at any depth — carry
	// the same key.
	Key string `json:"key"`
	// Provenance is one of the Provenance* constants.
	Provenance string `json:"provenance"`
	// Leaf marks an unsplit group (no candidates to weigh).
	Leaf bool `json:"leaf,omitempty"`
	// Alpha is the adopted split ratio (splits only).
	Alpha float64 `json:"alpha,omitempty"`
	// Units lists the per-layer decisions (cold splits only).
	Units []AuditUnit `json:"units,omitempty"`
	// Memory, when present, describes the constrained ladder's outcome.
	Memory *AuditMemory `json:"memory,omitempty"`
}

// AuditTotals aggregates a report's provenance mix.
type AuditTotals struct {
	Subproblems         int `json:"subproblems"`
	Cold                int `json:"cold"`
	MemoHits            int `json:"memo_hits"`
	SharedCacheHits     int `json:"shared_cache_hits"`
	CapacityFloorPruned int `json:"capacity_floor_pruned"`
}

// AuditReport is the structured JSON form of a recorded search.
type AuditReport struct {
	// Subproblems is sorted by (level, group, key, provenance) and
	// deduplicated, so the report is deterministic across parallelism
	// settings even though recording order is not.
	Subproblems []AuditSubproblem `json:"subproblems"`
	// Totals aggregates the provenance mix.
	Totals AuditTotals `json:"totals"`
}

// AuditRecorder collects subproblem decision records during a search.
// Safe for concurrent use; attach one via Options.Audit. Recording is
// pure observation: it never influences the produced plan.
type AuditRecorder struct {
	mu      sync.Mutex
	records []AuditSubproblem
}

// NewAuditRecorder returns an empty recorder.
func NewAuditRecorder() *AuditRecorder { return &AuditRecorder{} }

func (r *AuditRecorder) add(s AuditSubproblem) {
	r.mu.Lock()
	r.records = append(r.records, s)
	r.mu.Unlock()
}

// adopt moves another recorder's records into r — the portfolio planner
// uses it to keep exactly the winning variant's decisions.
func (r *AuditRecorder) adopt(other *AuditRecorder) {
	if other == nil || other == r {
		return
	}
	other.mu.Lock()
	recs := other.records
	other.records = nil
	other.mu.Unlock()
	r.mu.Lock()
	r.records = append(r.records, recs...)
	r.mu.Unlock()
}

// Report returns the sorted, deduplicated decision audit. Records are
// keyed by content-addressed subproblem identity, so searches recording
// the same pure subproblem collapse to one entry.
func (r *AuditRecorder) Report() AuditReport {
	r.mu.Lock()
	recs := make([]AuditSubproblem, len(r.records))
	copy(recs, r.records)
	r.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Provenance < b.Provenance
	})
	var rep AuditReport
	for i, s := range recs {
		if i > 0 {
			p := recs[i-1]
			if p.Level == s.Level && p.Group == s.Group && p.Key == s.Key && p.Provenance == s.Provenance {
				continue
			}
		}
		rep.Subproblems = append(rep.Subproblems, s)
	}
	rep.Totals.Subproblems = len(rep.Subproblems)
	for _, s := range rep.Subproblems {
		switch s.Provenance {
		case ProvenanceCold:
			rep.Totals.Cold++
		case ProvenanceMemoHit:
			rep.Totals.MemoHits++
		case ProvenanceSharedCacheHit:
			rep.Totals.SharedCacheHits++
		}
		if s.Memory != nil && s.Memory.Outcome == OutcomeCapacityFloorPruned {
			rep.Totals.CapacityFloorPruned++
		}
	}
	return rep
}

// WriteJSON writes the report as indented JSON.
func (r *AuditRecorder) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Report(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// SearchAudit returns the decision audit of the search that produced the
// plan, nil when the search ran without Options.Audit. This is the
// Plan-level companion to Explain: Explain prices the root split's
// alternatives post-hoc, SearchAudit reports what the search actually
// weighed at every subproblem.
func (p *Plan) SearchAudit() *AuditReport {
	if p.audit == nil {
		return nil
	}
	rep := p.audit.Report()
	return &rep
}

// auditKey renders the stable hex prefix of a subproblem key.
func auditKey(key subKey) string {
	return hex.EncodeToString(key[:8])
}

// auditHit records a memo/shared-cache provenance record for a subproblem
// answered without computing.
func (p *planner) auditHit(node *hardware.Tree, key subKey, provenance string) {
	rec := p.opt.Audit
	if rec == nil {
		return
	}
	rec.add(AuditSubproblem{
		Level:      node.Level,
		Group:      node.Group.String(),
		Key:        auditKey(key),
		Provenance: provenance,
		Leaf:       node.IsLeaf(),
	})
}

// auditCompute records the adopted solution of one cold subproblem: per
// unit, every allowed type priced by the true cost model at the adopted
// ratio (the same reconstruction Plan.Explain performs), the winner, and
// why each loser died. mem carries the constrained ladder's outcome, nil
// when the memory constraint was off or non-binding.
func (p *planner) auditCompute(node *hardware.Tree, dims []extents, key subKey, n *PlanNode, mem *AuditMemory) {
	rec := p.opt.Audit
	if rec == nil {
		return
	}
	sub := AuditSubproblem{
		Level:      node.Level,
		Group:      node.Group.String(),
		Key:        auditKey(key),
		Provenance: ProvenanceCold,
		Memory:     mem,
	}
	if n.IsLeaf() {
		sub.Leaf = true
		rec.add(sub)
		return
	}
	sub.Alpha = n.Alpha
	// λ steering is visible when the ladder picked the winner: a loser
	// with a lower raw cost than the winner's died to the penalty, not to
	// the objective.
	steered := mem != nil && (mem.Outcome == OutcomeLambdaPenalized || mem.Outcome == OutcomeCapacityRatio)
	ctx := p.level(dims, n.SideI, n.SideJ)
	defer p.levels.Put(ctx)
	ctx.alpha = n.Alpha
	for u := range p.units {
		if p.units[u].Virtual {
			continue
		}
		chosen := n.Types[u]
		chosenCost := ctx.unitCost(u, chosen)
		au := AuditUnit{Unit: p.units[u].Name, Chosen: chosen.Short()}
		for _, t := range ctx.allowedTypes(u) {
			c := ctx.unitCost(u, t)
			reason := ReasonWon
			if t != chosen {
				reason = ReasonCostDominated
				if steered && c < chosenCost {
					reason = ReasonLambdaPenalized
				}
			}
			au.Candidates = append(au.Candidates, AuditCandidate{Type: t.Short(), CostSeconds: c, Reason: reason})
		}
		sub.Units = append(sub.Units, au)
	}
	rec.add(sub)
}
