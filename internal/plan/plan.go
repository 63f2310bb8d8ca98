// Package plan implements Plumber's predictive one-shot planner: the
// LP-style extension (§4.4's operational model driven to an allocation,
// rather than the greedy sequential tuner) that turns a single traced
// analysis plus a resource budget into a joint assignment of cores, cache
// memory, prefetching, and outer parallelism across every Dataset at once
// — with a predicted end-to-end rate, so no re-trace is needed per step.
//
// The solver is a water-filling relaxation of the paper's LP, solved
// jointly with cache placement: for every legal cache candidate (including
// none) it re-derives the post-cache rate curves — a warm cache idles the
// whole sub-graph it covers — water-fills the core budget over the Datasets
// that remain active, and keeps the (cache, core-assignment) pair with the
// best predicted steady-state rate under the combined memory+core budget.
// Within one candidate the fractional optimum equalizes scaled capacity
// across parallelizable Datasets at the resource ceiling (cores are split
// in proportion to 1/R_i), and the integral plan is recovered by granting
// whole cores one at a time to the node with the lowest resulting
// capacity. Outer parallelism is raised only when a fundamentally
// sequential Dataset caps the pipeline below the resource ceiling.
package plan

import (
	"fmt"
	"math"

	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/stats"
)

// Budget is the resource envelope the planner (and the greedy tuner —
// package rewrite aliases this type) allocates against: the paper's nc
// cores, memory for caches, and disk bandwidth.
type Budget struct {
	// Cores bounds total intra-operator parallelism (and, multiplied by the
	// per-replica cost, outer parallelism). Zero allocates against the
	// traced machine's core count instead — like the paper's nc-core tuner
	// — falling back to a 64-core safety cap when that is unknown too.
	Cores int `json:"cores"`
	// MemoryBytes bounds cache materialization; zero disables caching.
	MemoryBytes int64 `json:"memory_bytes"`
	// DiskBandwidth is available read bandwidth in bytes/second; zero means
	// unbounded (in-memory source).
	DiskBandwidth float64 `json:"disk_bandwidth,omitempty"`
	// SourceBandwidth bounds individual source Datasets (by name) in
	// bytes/second — the storage connector's bandwidth hint, tighter than
	// (or instead of) the global DiskBandwidth for that source. Nil keeps
	// the single-scalar model.
	SourceBandwidth map[string]float64 `json:"source_bandwidth,omitempty"`
}

// Plan is one joint allocation: every knob the planner would set, plus the
// predicted throughput of the planned shape. Rate fields encode "no finite
// model bound" (the pipeline is predicted to stop being the bottleneck) as
// 0, since JSON cannot carry +Inf.
type Plan struct {
	// Parallelism is the planned knob value for every parallelizable
	// Dataset with a measurable rate (absent nodes keep their current
	// value).
	Parallelism map[string]int `json:"parallelism"`
	// CacheAbove names the Dataset whose output the plan materializes in a
	// new cache; empty means no cache is planned.
	CacheAbove string `json:"cache_above,omitempty"`
	// CacheBytes is the projected materialization (n_i × b_i) of the chosen
	// cache point, per pipeline replica.
	CacheBytes float64 `json:"cache_bytes,omitempty"`
	// PrefetchBuffer, when positive, plans a root prefetch of that depth.
	PrefetchBuffer int `json:"prefetch_buffer,omitempty"`
	// OuterParallelism is the planned whole-pipeline replica count (0 and 1
	// both mean a single instance).
	OuterParallelism int `json:"outer_parallelism,omitempty"`

	// CoresPlanned is the total core claim of the planned knobs: the sum of
	// planned parallelism over parallelizable Datasets times the replica
	// count. It never exceeds the budget's core count — when the budget is
	// below one core per parallel stage (the knob floor), the stages
	// time-share and CoresPlanned reports the budget itself.
	CoresPlanned int `json:"cores_planned"`
	// Efficiency is the observed/modeled calibration factor measured on the
	// planning trace; predictions below are already scaled by it.
	Efficiency float64 `json:"efficiency"`
	// PredictedMinibatchesPerSec is the calibrated steady-state prediction
	// for the planned shape under the budget (warm cache, if one is
	// planned). 0 encodes an unbounded model: the planned pipeline is not
	// predicted to limit the consumer.
	PredictedMinibatchesPerSec float64 `json:"predicted_minibatches_per_sec,omitempty"`
	// PredictedFillMinibatchesPerSec is the calibrated first-epoch
	// prediction (cache still filling) — what a single verifying trace of
	// the planned shape should observe.
	PredictedFillMinibatchesPerSec float64 `json:"predicted_fill_minibatches_per_sec,omitempty"`
	// SourceBandwidth echoes the budget's per-source bandwidth hints the
	// plan was solved under, so Hypothetical predictions reuse them.
	SourceBandwidth map[string]float64 `json:"source_bandwidth,omitempty"`
	// Notes is the human-readable allocation rationale, one line per
	// decision.
	Notes []string `json:"notes,omitempty"`
}

// ParallelismFor returns the planned knob for the named node, or def when
// the plan leaves it alone.
func (p *Plan) ParallelismFor(name string, def int) int {
	if v, ok := p.Parallelism[name]; ok && v > 0 {
		return v
	}
	return def
}

// Hypothetical converts the plan into the ops what-if shape it predicts,
// bounded by cores physical CPU cores (pass the deployment budget for a
// deployment prediction, or the verifying host's core count for a
// prediction a local trace should reproduce).
func (p *Plan) Hypothetical(warm bool, cores int, diskBandwidth float64) ops.Hypothetical {
	return ops.Hypothetical{
		Parallelism:      p.Parallelism,
		CacheAbove:       p.CacheAbove,
		WarmCache:        warm,
		OuterParallelism: p.OuterParallelism,
		Cores:            cores,
		DiskBandwidth:    diskBandwidth,
		SourceBandwidth:  p.SourceBandwidth,
	}
}

// solveCaps bounds the solver's search when the budget leaves a dimension
// unbounded, mirroring rewrite.DefaultRewrites' safety caps.
const (
	unboundedCores = 64
	maxOuter       = 16
	prefetchDepth  = 8
)

// alloc is one candidate joint solution: a cache choice (possibly none)
// with the core assignment water-filled over the Datasets that stay active
// under it, and the uncalibrated steady-state rate the pair predicts.
type alloc struct {
	cacheAbove  string
	cacheBytes  float64
	parallelism map[string]int
	outer       int
	coresUsed   int // per-replica steady-state core claim
	stages      int // parallel stages that claimed the per-stage core floor
	rate        float64
	notes       []string
}

// solveForCache water-fills the core budget assuming a warm cache above
// cacheAbove (empty = no cache): every Dataset the cache covers drops out
// of the rate curves, so the freed cores re-concentrate on the stages that
// still run in steady state. Returns nil when the candidate cache does not
// fit the memory budget at the replica count the allocation needs.
func solveForCache(a *ops.Analysis, b Budget, cores int, cacheAbove string) *alloc {
	var cached map[string]bool
	var cacheBytes float64
	if cacheAbove != "" {
		cached, _ = a.AtOrBelow(cacheAbove)
		if n, err := a.Node(cacheAbove); err == nil {
			cacheBytes = n.MaterializedBytes
		}
	}
	active := func(n ops.NodeAnalysis) bool { return !cached[n.Name] }

	// Hard bounds no core assignment can beat, on the post-cache curves:
	// the disk ceiling (a warm cache over the source does no I/O), the
	// aggregate CPU work-conservation ceiling, and (before replication) the
	// slowest fundamentally sequential Dataset still active.
	diskBound := math.Inf(1)
	if b.DiskBandwidth > 0 || len(b.SourceBandwidth) > 0 {
		for _, n := range a.Nodes {
			if !active(n) || n.IOBytesPerMinibatch <= 0 {
				continue
			}
			bw := b.DiskBandwidth
			if v, ok := b.SourceBandwidth[n.Name]; ok && v > 0 && (bw <= 0 || v < bw) {
				bw = v
			}
			if bw <= 0 {
				diskBound = 0
				break
			}
			diskBound = math.Min(diskBound, bw/n.IOBytesPerMinibatch)
		}
	}
	var cpuPerMB float64
	seqBound := math.Inf(1)
	seqName := ""
	for _, n := range a.Nodes {
		if !active(n) {
			continue
		}
		if !math.IsInf(n.Rate, 1) && n.Rate > 0 {
			cpuPerMB += 1 / n.Rate
		}
		if !n.Parallelizable && !math.IsInf(n.ScaledCapacity, 1) && n.ScaledCapacity < seqBound {
			seqBound = n.ScaledCapacity
			seqName = n.Name
		}
	}
	cpuBound := math.Inf(1)
	if cpuPerMB > 0 {
		cpuBound = float64(cores) / cpuPerMB
	}
	resourceCeiling := math.Min(diskBound, cpuBound)

	// Outer parallelism: replication is the only remedy for a sequential
	// bound (§5.1's NLP pipelines). maxNeed is the replica count that would
	// lift the sequential capacity to the resource ceiling, within the core
	// budget — the top of the search range, not a commitment: each replica
	// also multiplies the per-stage core claim and the cache's memory
	// footprint, so e.g. a 9-core budget may feed an expensive decode stage
	// better at one replica than at two. The joint pass below scores every
	// count and keeps the best.
	baseOuter := a.Snapshot.Graph.OuterParallelism
	if baseOuter < 1 {
		baseOuter = 1
	}
	maxNeed := baseOuter
	if seqBound < resourceCeiling && !math.IsInf(resourceCeiling, 1) {
		need := int(math.Ceil(resourceCeiling / seqBound))
		perReplica := 0
		for _, n := range a.Nodes {
			if active(n) && n.Parallelizable {
				perReplica++ // each replica runs every active parallel stage at >= 1 core
			}
		}
		if perReplica < 1 {
			perReplica = 1
		}
		if max := cores / perReplica; need > max {
			need = max
		}
		if need > maxOuter {
			need = maxOuter
		}
		if need > maxNeed {
			maxNeed = need
		}
	}

	allocAt := func(outer int) *alloc {
		s := &alloc{cacheAbove: cacheAbove, cacheBytes: cacheBytes, parallelism: make(map[string]int)}
		if outer > baseOuter {
			s.notes = append(s.notes, fmt.Sprintf(
				"outer parallelism %d: sequential %q (%.1f minibatches/s) caps the pipeline below the resource ceiling (%.1f)",
				outer, seqName, seqBound, resourceCeiling))
		}

		// Every replica fills its own cache copy; a candidate that cannot fit
		// the memory budget at this replica count is no candidate at all.
		if cacheAbove != "" {
			if !(s.cacheBytes > 0) || math.IsInf(s.cacheBytes, 1) ||
				s.cacheBytes*float64(outer) > float64(b.MemoryBytes) {
				return nil
			}
		}

		// Water-filling core assignment across the active parallelizable
		// Datasets with a measurable rate. Fractionally the optimum equalizes
		// p_i·R_i at the ceiling (p_i ∝ 1/R_i); integrally, grant one core at a
		// time to the lowest-capacity node until the budget binds or every node
		// clears the target (raising past the ceiling cannot improve rate).
		type cand struct {
			name string
			rate float64
			p    int
		}
		var cands []cand
		var kept []cand // unmeasurable knobs kept at their current value
		coresUsed := 0
		for _, n := range a.Nodes {
			if !active(n) || !n.Parallelizable {
				continue
			}
			if math.IsInf(n.Rate, 1) || n.Rate <= 0 {
				// No measurable cost: the model cannot rank this knob, so keep
				// the current value rather than churn it (degraded below only
				// when the budget cannot cover the seeded claim).
				cur := n.Parallelism
				if cur < 1 {
					cur = 1
				}
				kept = append(kept, cand{name: n.Name, p: cur})
				coresUsed += cur
				continue
			}
			coresUsed++ // every measurable parallel stage starts at one core per replica
			cands = append(cands, cand{name: n.Name, rate: n.Rate, p: 1})
		}

		// The seeded claim must already fit the budget, or the grant loop below
		// never runs and the plan overcommits: degrade kept knobs toward 1, and
		// drop any multi-replica candidate that still cannot fit (the
		// single-replica allocation always exists and carries the core-floor
		// case, where CoresPlanned is capped by the caller).
		for i := range kept {
			prev := kept[i].p
			for kept[i].p > 1 && coresUsed*outer > cores {
				kept[i].p--
				coresUsed--
			}
			if kept[i].p != prev {
				s.notes = append(s.notes, fmt.Sprintf(
					"parallelism %q degraded %d -> %d (unmeasured knob, %d-core budget binds)",
					kept[i].name, prev, kept[i].p, cores))
			}
		}
		if outer > 1 && coresUsed*outer > cores {
			return nil
		}
		for _, k := range kept {
			s.parallelism[k.name] = k.p
		}

		target := math.Min(resourceCeiling, seqBound*float64(outer))
		for (coresUsed+1)*outer <= cores { // each grant costs one core in every replica
			best := -1
			for i, c := range cands {
				if float64(c.p)*c.rate*float64(outer) >= target {
					continue // already clears the ceiling
				}
				if best < 0 || float64(c.p)*c.rate < float64(cands[best].p)*cands[best].rate {
					best = i
				}
			}
			if best < 0 {
				break
			}
			cands[best].p++
			coresUsed++
		}
		for _, c := range cands {
			s.parallelism[c.name] = c.p
			if cur, err := a.Snapshot.Graph.Node(c.name); err == nil && cur.EffectiveParallelism() != c.p {
				s.notes = append(s.notes, fmt.Sprintf(
					"parallelism %q: %d -> %d (rate %.1f minibatches/s/core, water-filled toward ceiling %.1f)",
					c.name, cur.EffectiveParallelism(), c.p, c.rate, target))
			}
		}
		s.outer = outer
		s.coresUsed = coresUsed
		s.stages = len(cands) + len(kept)

		// Fill-epoch knobs for the covered sub-graph: the Datasets below the
		// cache run exactly once, while it fills, and the steady state claims
		// none of their cores — so whatever the active stages left unclaimed
		// water-fills the fill epoch's own bottlenecks (and oversized traced
		// knobs are degraded so the fill claim also fits the budget). These
		// knobs shape PredictedFillMinibatchesPerSec; CoresPlanned stays the
		// steady-state claim.
		if cacheAbove != "" {
			var fillCands []cand
			fillUsed := coresUsed
			for _, n := range a.Nodes {
				if !cached[n.Name] || !n.Parallelizable {
					continue
				}
				cur := n.Parallelism
				if cur < 1 {
					cur = 1
				}
				fillCands = append(fillCands, cand{name: n.Name, rate: n.Rate, p: cur})
				fillUsed += cur
			}
			for i := range fillCands {
				for fillCands[i].p > 1 && fillUsed*outer > cores {
					fillCands[i].p--
					fillUsed--
				}
			}
			fillDisk := math.Inf(1)
			if b.DiskBandwidth > 0 || len(b.SourceBandwidth) > 0 {
				fillDisk = a.DiskBoundWithSources(b.DiskBandwidth, b.SourceBandwidth)
			}
			fillCPU := a.CPUBoundMinibatchesPerSec(cores)
			fillSeq := math.Inf(1)
			for _, n := range a.Nodes {
				if !n.Parallelizable && !math.IsInf(n.ScaledCapacity, 1) && n.ScaledCapacity < fillSeq {
					fillSeq = n.ScaledCapacity
				}
			}
			fillTarget := math.Min(math.Min(fillDisk, fillCPU), fillSeq*float64(outer))
			for (fillUsed+1)*outer <= cores {
				best := -1
				for i, c := range fillCands {
					if math.IsInf(c.rate, 1) || c.rate <= 0 {
						continue // unmeasurable: keep the traced knob
					}
					if float64(c.p)*c.rate*float64(outer) >= fillTarget {
						continue
					}
					if best < 0 || float64(c.p)*c.rate < float64(fillCands[best].p)*fillCands[best].rate {
						best = i
					}
				}
				if best < 0 {
					break
				}
				fillCands[best].p++
				fillUsed++
			}
			for _, c := range fillCands {
				s.parallelism[c.name] = c.p
				if cur, err := a.Snapshot.Graph.Node(c.name); err == nil && cur.EffectiveParallelism() != c.p {
					s.notes = append(s.notes, fmt.Sprintf(
						"parallelism %q: %d -> %d (below the cache; fill-epoch cores from the steady state's leftover budget)",
						c.name, cur.EffectiveParallelism(), c.p))
				}
			}
		}
		s.rate = a.PredictRate(ops.Hypothetical{
			Parallelism:      s.parallelism,
			CacheAbove:       cacheAbove,
			WarmCache:        cacheAbove != "",
			OuterParallelism: outer,
			Cores:            cores,
			DiskBandwidth:    b.DiskBandwidth,
			SourceBandwidth:  b.SourceBandwidth,
		})
		return s
	}

	// Score every replica count from one to maxNeed and keep the best
	// rate. Ties prefer the graph's current count (a rate-neutral plan
	// should not churn a live deployment's replicas), then fewer replicas
	// (ascending order: the incumbent wins ties).
	var best *alloc
	for o := 1; o <= maxNeed; o++ {
		s := allocAt(o)
		if s == nil {
			continue
		}
		if best == nil || s.rate > best.rate ||
			(s.rate == best.rate && o == baseOuter && best.outer != baseOuter) {
			best = s
		}
	}
	return best
}

// Solve computes the joint allocation for the analyzed pipeline under the
// budget in one shot. The returned plan is advisory: materialize it with
// rewrite.ApplyPlan and verify with one trace.
func Solve(a *ops.Analysis, b Budget) (*Plan, error) {
	if len(a.Nodes) == 0 {
		return nil, fmt.Errorf("plan: analysis has no nodes")
	}
	cores := b.Cores
	if cores <= 0 {
		cores = a.Snapshot.Machine.Cores
	}
	if cores <= 0 {
		cores = unboundedCores
	}
	g := a.Snapshot.Graph
	p := &Plan{SourceBandwidth: b.SourceBandwidth}

	// Joint search over (cache placement, core assignment): solve the core
	// water-filling once per legal cache candidate — on the rate curves that
	// remain after that cache warms — and keep the best predicted rate. A
	// cache must strictly beat the no-cache allocation to justify its
	// memory; among equal cache candidates the most-downstream one wins
	// (skipping the longest sub-graph, in topological order).
	hasCache := false
	for _, n := range g.Nodes {
		if n.Kind == pipeline.KindCache {
			hasCache = true
		}
	}
	base := solveForCache(a, b, cores, "")
	best := base
	if b.MemoryBytes > 0 && !hasCache {
		for _, n := range a.Nodes {
			if !n.Cacheable || !(n.MaterializedBytes > 0) || math.IsInf(n.MaterializedBytes, 1) {
				continue
			}
			s := solveForCache(a, b, cores, n.Name)
			if s == nil {
				continue
			}
			if s.rate > base.rate && s.rate >= best.rate {
				best = s
			}
		}
	}

	p.Parallelism = best.parallelism
	p.CacheAbove = best.cacheAbove
	p.OuterParallelism = best.outer
	p.Notes = append(p.Notes, best.notes...)
	if best.cacheAbove != "" {
		p.CacheBytes = best.cacheBytes
		p.Notes = append(p.Notes, fmt.Sprintf(
			"cache above %q: %.0f bytes/replica within the %d-byte budget; joint solve predicts %.1f minibatches/s warm vs %.1f without a cache",
			p.CacheAbove, p.CacheBytes, b.MemoryBytes, best.rate, base.rate))
	}
	p.CoresPlanned = best.coresUsed * best.outer
	if p.CoresPlanned > cores {
		// One core per parallel stage is the knob floor; when the budget is
		// below even that, the stages time-share cores and the plan claims
		// exactly the budget, never more.
		p.Notes = append(p.Notes, fmt.Sprintf(
			"core floor: %d parallel stages need %d cores at parallelism 1 against a %d-core budget; stages time-share",
			best.stages, p.CoresPlanned, cores))
		p.CoresPlanned = cores
	}

	// Prefetch: always decouple the consumer at the root, once.
	if root, err := g.Node(g.Output); err == nil && root.Kind != pipeline.KindPrefetch {
		p.PrefetchBuffer = prefetchDepth
		p.Notes = append(p.Notes, fmt.Sprintf(
			"prefetch(%d) at the root to overlap production with consumption", prefetchDepth))
	}

	// Predictions, calibrated by the planning trace's observed efficiency.
	p.Efficiency = stats.FiniteOrZero(a.EfficiencyWithSources(b.DiskBandwidth, b.SourceBandwidth))
	p.PredictedMinibatchesPerSec = stats.FiniteOrZero(
		a.PredictObservedRate(p.Hypothetical(true, cores, b.DiskBandwidth)))
	p.PredictedFillMinibatchesPerSec = stats.FiniteOrZero(
		a.PredictObservedRate(p.Hypothetical(false, cores, b.DiskBandwidth)))
	return p, nil
}

// CacheDemand is a pipeline's answer to "how much cache memory could you
// actually use, and what would it buy?" — the currency the multi-tenant
// arbiter splits Budget.MemoryBytes in. A zero demand (Bytes == 0) means no
// legal cache point exists, so memory granted to this pipeline is wasted.
type CacheDemand struct {
	// Above names the cache point the demand prices (the same choice Solve
	// would make with unlimited memory).
	Above string
	// Bytes is the total materialization the cache needs — per-replica bytes
	// times the planned replica count — i.e. the memory slice that makes the
	// cache fit.
	Bytes float64
	// BenefitPerByte is the predicted steady-state rate gain per
	// materialized byte (minibatches/s/byte). +Inf when the warm cache lifts
	// the model's ceiling entirely; 0 when the cache only saves CPU work
	// (Solve's work-saved fallback) without lifting the predicted ceiling.
	BenefitPerByte float64
}

// SolveCacheDemand prices the analyzed pipeline's cache appetite under a
// core/disk share by solving the plan with the memory dimension unlimited
// and measuring the chosen cache point's predicted benefit per byte — the
// same benefit-per-byte ranking Solve's cache placement uses, exposed so
// the arbiter can water-fill memory across tenants by marginal value
// instead of splitting it blindly by weight.
func SolveCacheDemand(a *ops.Analysis, b Budget) (CacheDemand, error) {
	unlimited := b
	unlimited.MemoryBytes = math.MaxInt64
	p, err := Solve(a, unlimited)
	if err != nil {
		return CacheDemand{}, err
	}
	if p.CacheAbove == "" || !(p.CacheBytes > 0) {
		return CacheDemand{}, nil
	}
	outer := p.OuterParallelism
	if outer < 1 {
		outer = 1
	}
	cores := b.Cores
	if cores <= 0 {
		cores = a.Snapshot.Machine.Cores
	}
	if cores <= 0 {
		cores = unboundedCores
	}
	d := CacheDemand{Above: p.CacheAbove, Bytes: p.CacheBytes * float64(outer)}
	base := a.PredictRate(ops.Hypothetical{
		Parallelism:      p.Parallelism,
		OuterParallelism: outer,
		Cores:            cores,
		DiskBandwidth:    b.DiskBandwidth,
		SourceBandwidth:  b.SourceBandwidth,
	})
	warm := a.PredictRate(ops.Hypothetical{
		Parallelism:      p.Parallelism,
		CacheAbove:       p.CacheAbove,
		WarmCache:        true,
		OuterParallelism: outer,
		Cores:            cores,
		DiskBandwidth:    b.DiskBandwidth,
		SourceBandwidth:  b.SourceBandwidth,
	})
	switch {
	case math.IsInf(warm, 1) && !math.IsInf(base, 1):
		d.BenefitPerByte = math.Inf(1)
	case warm > base:
		d.BenefitPerByte = (warm - base) / d.Bytes
	}
	return d, nil
}
