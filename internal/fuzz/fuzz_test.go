package fuzz

import (
	"encoding/json"
	"slices"
	"testing"

	"plumber"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
	"plumber/internal/rewrite"
	"plumber/internal/scenario"
	"plumber/internal/stats"
	"plumber/internal/trace"
	"plumber/internal/tracerun"
)

// masterSeed is the logged root of every derived per-case seed; change it
// and the whole matrix changes reproducibly.
const masterSeed = 0x706c756d626572 // "plumber"

// TestFuzzPlannerInvariants drives the property harness over a seeded
// matrix of random workloads. Every failure prints the minimized spec as
// JSON so it can be replayed without the harness.
func TestFuzzPlannerInvariants(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 30
	}
	t.Logf("master seed %#x, %d workloads, epsilon %.2f", uint64(masterSeed), n, Epsilon)
	rng := stats.NewRNG(masterSeed)
	for i := 0; i < n; i++ {
		seed := rng.Uint64()
		c, err := Check(seed)
		if err != nil {
			t.Fatalf("case %d (seed %d): %v", i, seed, err)
		}
		if len(c.Violations) > 0 {
			t.Errorf("case %d: %s", i, Report(Minimize(c)))
		}
	}
}

// TestApplyPlanKeepsSampleDecision machine-checks the premise that lets
// plan-first Optimize decide once whether its plan and verify traces read
// the file sample: over the seeded matrix of TestFuzzPlannerInvariants,
// the planned program has the traced program's source catalogs and root
// batch size, the inputs of tracerun.SampleFits, and the same decision.
func TestApplyPlanKeepsSampleDecision(t *testing.T) {
	rng := stats.NewRNG(masterSeed)
	sampled := 0
	for i := 0; i < 120; i++ {
		seed := rng.Uint64()
		s, b := Gen(seed)
		w, err := scenario.Build(s)
		if err != nil {
			t.Fatalf("case %d (seed %d): %v", i, seed, err)
		}
		snap, err := plumber.Trace(w.Graph, plumber.Options{
			Source: w.Source, UDFs: w.Registry, Machine: trace.Machine{Name: "fuzz", Cores: machineCores},
			Seed: s.Seed, WorkScale: 1, MaxMinibatches: maxTraceMinibatches,
		})
		if err != nil {
			t.Fatalf("case %d (seed %d): trace: %v", i, seed, err)
		}
		a, err := plumber.Analyze(snap, w.Registry)
		if err != nil {
			t.Fatalf("case %d (seed %d): analyze: %v", i, seed, err)
		}
		p, err := plan.Solve(a, b)
		if err != nil {
			continue // a violation TestFuzzPlannerInvariants reports
		}
		applied, _, err := rewrite.ApplyPlan(w.Graph, p)
		if err != nil {
			continue // likewise
		}
		if got, want := sourceCatalogs(t, applied), sourceCatalogs(t, w.Graph); !slices.Equal(got, want) {
			t.Errorf("case %d (seed %d): ApplyPlan changed the source catalogs %v -> %v", i, seed, want, got)
		}
		got, gerr := applied.BatchSizeAtRoot()
		want, werr := w.Graph.BatchSizeAtRoot()
		if got != want || (gerr == nil) != (werr == nil) {
			t.Errorf("case %d (seed %d): ApplyPlan changed the root batch size %d -> %d", i, seed, want, got)
		}
		fits := tracerun.SampleFits(w.Graph)
		if tracerun.SampleFits(applied) != fits {
			t.Errorf("case %d (seed %d): ApplyPlan changed SampleFits from %v", i, seed, fits)
		}
		if fits {
			sampled++
		}
	}
	t.Logf("%d of 120 traced programs sample", sampled)
}

// sourceCatalogs lists g's source catalogs in topological order.
func sourceCatalogs(t *testing.T, g *pipeline.Graph) []string {
	t.Helper()
	srcs, err := g.Sources()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, n := range srcs {
		out = append(out, n.Catalog)
	}
	return out
}

// TestJointSolveCanonicalScenarios is the acceptance head-to-head: on
// every canonical scenario the joint solve's modeled rate must match or
// beat the retired cores-then-cache greedy baseline — the ordering the
// joint pass exists to dominate.
func TestJointSolveCanonicalScenarios(t *testing.T) {
	for _, spec := range scenario.Suite(true) {
		budget := plan.Budget{Cores: 4, MemoryBytes: 64 << 20, DiskBandwidth: spec.Device.TotalBandwidth}
		c, err := CheckSpec(spec, budget)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if len(c.Violations) > 0 {
			t.Errorf("%s: %v", spec.Name, c.Violations)
		}
		if r := c.Ratio(); r < 1 {
			t.Errorf("%s: joint solve %.1f below greedy %.1f (ratio %.3f)",
				spec.Name, c.PlannerRate, c.GreedyRate, r)
		}
	}
}

// FuzzSolve is the native fuzz target over the same generator: any uint64
// is a valid workload, so the mutator explores the whole spec space.
// Run with: go test -fuzz=FuzzSolve -fuzztime=20s ./internal/fuzz
func FuzzSolve(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 0xdeadbeef, 0x706c756d626572} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		c, err := Check(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(c.Violations) > 0 {
			t.Errorf("%s", Report(Minimize(c)))
		}
	})
}

// FuzzSpecRoundTrip checks that every generated spec survives a JSON
// round trip with its identity intact: the re-read spec must normalize to
// the same shape and register the same catalog name, or a recorded matrix
// (BENCH_fuzzer.json counterexamples included) would rebuild a different
// workload than it measured.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 0xdeadbeef, 0x706c756d626572} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		s, _ := Gen(seed)
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		var got scenario.Spec
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}
		if got != s {
			t.Fatalf("seed %d: round trip changed the spec:\n  in  %+v\n  out %+v", seed, s, got)
		}
		if got.CatalogName() != s.CatalogName() {
			t.Fatalf("seed %d: round trip changed the catalog name %q -> %q",
				seed, s.CatalogName(), got.CatalogName())
		}
	})
}
