package ops

import "math"

// Hypothetical describes a what-if knob configuration over an analyzed
// pipeline: the shape the planner intends to deploy, expressed relative to
// the traced program. The zero value describes the traced shape itself
// (except OuterParallelism, which defaults to the traced graph's value only
// in Efficiency's baseline — set it explicitly when predicting).
type Hypothetical struct {
	// Parallelism overrides the parallelism knob of the named Datasets;
	// absent (or non-positive) entries keep the traced value. Overrides on
	// non-parallelizable Datasets are ignored.
	Parallelism map[string]int
	// CacheAbove names the Dataset whose output a newly inserted cache
	// would materialize; empty means no new cache.
	CacheAbove string
	// WarmCache, with CacheAbove set, predicts the steady state in which
	// the cache serves from memory: every Dataset at or below the cache
	// point drops out of the model. False predicts the fill epoch, where
	// the whole chain still runs.
	WarmCache bool
	// OuterParallelism is the hypothetical whole-pipeline replica count
	// (0 and 1 both mean a single instance).
	OuterParallelism int
	// Cores bounds the aggregate CPU work-conservation ceiling; 0 means
	// unbounded. For predictions that a trace on this host will verify,
	// pass the cores the host can actually deliver, not the deployment
	// budget.
	Cores int
	// DiskBandwidth bounds source I/O in bytes/second; 0 means unbounded.
	DiskBandwidth float64
	// SourceBandwidth bounds individual source nodes (by Dataset name) in
	// bytes/second, overriding DiskBandwidth for that node when tighter —
	// the connector's bandwidth hint, so a multi-backend plan does not
	// model cold object storage at local-disk speed. Absent or
	// non-positive entries fall back to DiskBandwidth; a nil map leaves
	// behavior exactly as before.
	SourceBandwidth map[string]float64
}

// PredictRate returns the modeled throughput ceiling, in root
// minibatches/second, of the hypothetical shape: the minimum of every
// active node's capacity (parallelism × resource-accounted rate, times
// outer parallelism), the aggregate CPU work-conservation bound, and the
// disk-bandwidth bound. +Inf means no active node has measurable cost
// under the model — the pipeline is predicted to no longer bound the
// consumer (e.g. everything is served from a warm cache).
//
// This is the paper's LP objective evaluated at one candidate allocation:
// rates come from a single trace, so no re-run is needed to score a shape.
func (a *Analysis) PredictRate(h Hypothetical) float64 {
	outer := h.OuterParallelism
	if outer < 1 {
		outer = 1
	}
	var cached map[string]bool
	if h.WarmCache && h.CacheAbove != "" {
		// Membership, not chain position: on a DAG only the branch feeding
		// the cache goes idle, not every node that happens to sort earlier.
		cached, _ = a.AtOrBelow(h.CacheAbove)
	}
	bound := math.Inf(1)
	var cpuPerMB, ioPerMB float64
	for _, n := range a.Nodes {
		if cached[n.Name] {
			continue // served from the cache in steady state
		}
		p := n.Parallelism
		if v, ok := h.Parallelism[n.Name]; ok && v > 0 && n.Parallelizable {
			p = v
		}
		if !math.IsInf(n.Rate, 1) && n.Rate > 0 {
			cpuPerMB += 1 / n.Rate
			if cap := float64(p) * n.Rate * float64(outer); cap < bound {
				bound = cap
			}
		}
		if n.IOBytesPerMinibatch > 0 {
			ioPerMB += n.IOBytesPerMinibatch
			if v, ok := h.SourceBandwidth[n.Name]; ok && v > 0 {
				if db := v / n.IOBytesPerMinibatch; db < bound {
					bound = db
				}
			}
		}
	}
	if h.DiskBandwidth > 0 && ioPerMB > 0 {
		// One shared device: the global bandwidth bounds the active nodes'
		// aggregate demand, so a DAG's two sources cannot each claim the
		// full budget.
		if db := h.DiskBandwidth / ioPerMB; db < bound {
			bound = db
		}
	}
	if h.Cores > 0 && cpuPerMB > 0 {
		if cb := float64(h.Cores) / cpuPerMB; cb < bound {
			bound = cb
		}
	}
	return bound
}

// Efficiency is the calibration factor relating the model to this host:
// ObservedRate divided by PredictRate of the as-traced shape under the
// resources the trace actually ran with — TraceCores, and the given disk
// bandwidth. Engine overhead and scheduling land in this single scalar,
// which PredictObservedRate multiplies back in. Calibrating at the trace's
// own cores, not at the hypothetical's, keeps the scalar a property of the
// trace: a trace whose stages overlapped on two cores is not credited with
// that overlap again when the model is asked about one core. Returns 1 when
// the as-traced shape has no finite modeled bound to calibrate against.
func (a *Analysis) Efficiency(diskBandwidth float64) float64 {
	return a.EfficiencyWithSources(diskBandwidth, nil)
}

// EfficiencyWithSources is Efficiency with per-source bandwidth hints
// applied to the as-traced baseline, so calibration and prediction see the
// same storage model. A nil map reproduces Efficiency exactly.
func (a *Analysis) EfficiencyWithSources(diskBandwidth float64, src map[string]float64) float64 {
	base := a.PredictRate(Hypothetical{
		OuterParallelism: a.Snapshot.Graph.OuterParallelism,
		Cores:            a.TraceCores(),
		DiskBandwidth:    diskBandwidth,
		SourceBandwidth:  src,
	})
	if math.IsInf(base, 1) || base <= 0 {
		return 1
	}
	return a.ObservedRate / base
}

// TraceCores is the core count the trace ran with, as its snapshot
// records it (Machine.Cores): the pool share for a pooled planning trace,
// capped at GOMAXPROCS for one that spun its modeled CPU. 0 means
// unbounded.
func (a *Analysis) TraceCores() int { return a.Snapshot.Machine.Cores }

// PredictObservedRate is the what-if prediction a verifying trace should
// reproduce: PredictRate scaled by the Efficiency calibration. +Inf (an
// unbounded model) passes through unscaled.
func (a *Analysis) PredictObservedRate(h Hypothetical) float64 {
	r := a.PredictRate(h)
	if math.IsInf(r, 1) {
		return r
	}
	return a.EfficiencyWithSources(h.DiskBandwidth, h.SourceBandwidth) * r
}
