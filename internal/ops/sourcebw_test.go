package ops

import (
	"math"
	"testing"
)

// TestPredictRatePerSourceBandwidth checks the per-source hint semantics:
// a hint on an IO node bounds that node at min(global, hint), hints on
// non-IO or unknown nodes are ignored, and a nil map reproduces the single
// global scalar bit-for-bit.
func TestPredictRatePerSourceBandwidth(t *testing.T) {
	a := whatifAnalysis()
	full := Hypothetical{Parallelism: map[string]int{"map_1": 4}}

	// Baseline: the global scalar alone (10 MB/s over 1 MiB/minibatch).
	globalOnly := a.PredictRate(Hypothetical{Parallelism: full.Parallelism, DiskBandwidth: 10e6})

	// A nil SourceBandwidth map must not change anything.
	got := a.PredictRate(Hypothetical{Parallelism: full.Parallelism, DiskBandwidth: 10e6, SourceBandwidth: nil})
	if got != globalOnly {
		t.Fatalf("nil source map changed the prediction: %v vs %v", got, globalOnly)
	}

	// A tighter per-source hint binds below the global scalar.
	got = a.PredictRate(Hypothetical{
		Parallelism:     full.Parallelism,
		DiskBandwidth:   10e6,
		SourceBandwidth: map[string]float64{"interleave_1": 5e6},
	})
	want := 5e6 / float64(1<<20)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("tight hint: bound = %v, want %v", got, want)
	}

	// A looser hint defers to the global scalar (min wins).
	got = a.PredictRate(Hypothetical{
		Parallelism:     full.Parallelism,
		DiskBandwidth:   10e6,
		SourceBandwidth: map[string]float64{"interleave_1": 50e6},
	})
	if math.Abs(got-globalOnly) > 1e-9 {
		t.Fatalf("loose hint: bound = %v, want global %v", got, globalOnly)
	}

	// A hint with no global scalar bounds the IO node on its own.
	got = a.PredictRate(Hypothetical{
		Parallelism:     full.Parallelism,
		SourceBandwidth: map[string]float64{"interleave_1": 5e6},
	})
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("hint-only: bound = %v, want %v", got, want)
	}

	// Hints on non-IO or unknown nodes are ignored.
	got = a.PredictRate(Hypothetical{
		Parallelism:     full.Parallelism,
		SourceBandwidth: map[string]float64{"map_1": 1, "nope": 1},
	})
	unbounded := a.PredictRate(full)
	if got != unbounded {
		t.Fatalf("non-IO hints changed the prediction: %v vs %v", got, unbounded)
	}
}

// TestDiskBoundWithSources checks the analysis-level bound: nil map
// reproduces the scalar version, per-source hints take the min, and a
// non-positive effective bandwidth is guarded to zero.
func TestDiskBoundWithSources(t *testing.T) {
	a := analysisFromCapacities([]float64{100, 50}, 1<<20)

	scalar := a.DiskBoundMinibatchesPerSec(100 << 20)
	if got := a.DiskBoundWithSources(100<<20, nil); got != scalar {
		t.Fatalf("nil sources: got %v, want scalar bound %v", got, scalar)
	}

	src := map[string]float64{a.Nodes[0].Name: 10e6}
	want := 10e6 / float64(1<<20)
	if got := a.DiskBoundWithSources(100<<20, src); math.Abs(got-want) > 1e-9 {
		t.Fatalf("tight hint: got %v, want %v", got, want)
	}
	// Hint only, no global budget.
	if got := a.DiskBoundWithSources(0, src); math.Abs(got-want) > 1e-9 {
		t.Fatalf("hint without global: got %v, want %v", got, want)
	}
	// Neither binds: zero, as the scalar version guards.
	if got := a.DiskBoundWithSources(0, map[string]float64{}); got != 0 {
		t.Fatalf("no bandwidth anywhere: got %v, want 0", got)
	}
	// No IO stays unbounded regardless of hints.
	noIO := analysisFromCapacities([]float64{100, 50}, 0)
	if got := noIO.DiskBoundWithSources(10e6, src); !math.IsInf(got, 1) {
		t.Fatalf("no-IO pipeline: got %v, want +Inf", got)
	}
}

// TestEfficiencyWithSourcesMatchesScalar pins the regression contract: with
// no per-source hints the calibrated efficiency is identical to the
// original single-scalar path.
func TestEfficiencyWithSourcesMatchesScalar(t *testing.T) {
	a := whatifAnalysis()
	for _, bw := range []float64{0, 10e6, 1e9} {
		scalar := a.Efficiency(bw)
		withNil := a.EfficiencyWithSources(bw, nil)
		if scalar != withNil {
			t.Fatalf("bw %v: EfficiencyWithSources(nil) = %v, want %v", bw, withNil, scalar)
		}
	}
}
