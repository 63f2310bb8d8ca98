package main

import (
	"fmt"
	"runtime"
	"time"

	"plumber"
	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/engine"
	"plumber/internal/pipeline"
	"plumber/internal/scenario"
	"plumber/internal/udf"
)

// workload is one named set of inputs the benchmark runs.
type workload interface {
	// setup makes the inputs from the seed (catalogs, shard content) and
	// runs the warm-up pass.
	setup(seed uint64) error
	// tenants returns the workload's pipelines.
	tenants() []*tenant
	// round runs one measured round: the tuning call, then the drain.
	round(rc *roundCtx) (roundResult, error)
	// tuneOnce runs the tuning call alone, on the unwrapped connectors, and
	// returns the number of traces it used.
	tuneOnce() (int, error)
	// attributed sums the probed layer times that make up the tuning call.
	attributed(p layerTimes) time.Duration
}

func newWorkload(name string) (workload, bool) {
	switch name {
	case "ingest":
		return &ingest{}, true
	case "tune":
		return &tune{}, true
	case "colocate":
		return &colocate{}, true
	}
	return nil, false
}

// roundCtx is what one round runs with: in traced rounds a span recorder
// and the timing connector wrappers, in untraced ones neither.
type roundCtx struct {
	rec    *recorder
	parent int64
	wrap   func(connector.Connector) connector.Connector
}

// roundResult is one measured round. Minibatches that were not delivered,
// or were delivered wrong, count as failed.
type roundResult struct {
	examples  int64
	drainWall time.Duration
	tune      time.Duration
	accuracy  float64
	attempted int64
	failed    int64
	problems  []string
	errs      engine.ErrorStats
	// report carries the concurrent run's per-tenant figures on colocate.
	report *plumber.RunReport
}

// expect records one output check: want minibatches were attempted, and
// when ok is false the shortfall (at least one) failed.
func (r *roundResult) expect(ok bool, want, got int64, format string, args ...any) {
	r.attempted += want
	if ok {
		return
	}
	miss := want - got
	if miss < 1 {
		miss = 1
	}
	if miss > want {
		miss = want
	}
	r.failed += miss
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *roundResult) addErrs(e engine.ErrorStats) {
	r.errs.Retries += e.Retries
	r.errs.Errors += e.Errors
	r.errs.GaveUp += e.GaveUp
}

// catalogTotals returns the examples and payload bytes of one pass over
// the catalog's materialized shards under seed.
func catalogTotals(c data.Catalog, seed uint64) (examples, bytes int64) {
	for _, f := range c.GenerateFileSpecs(seed) {
		examples += int64(f.Records)
		for _, s := range f.RecordSizes {
			bytes += s
		}
	}
	return examples, bytes
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// warmUp drains the tenant's starting program, which makes passes over its
// catalog, and checks what it delivered.
func warmUp(t *tenant, passes int64) error {
	d, err := drain(t.start, t.engineOptions(t.src), 0, false, nil, 0)
	if err != nil {
		return fmt.Errorf("%s warm-up: %w", t.name, err)
	}
	if d.examples != passes*t.passExamples {
		return fmt.Errorf("%s warm-up delivered %d examples, want %d", t.name, d.examples, passes*t.passExamples)
	}
	return nil
}

// ---- ingest ----------------------------------------------------------

const (
	noopUDF        = "perfbench_noop"
	ingestBatch    = 64
	ingestPasses   = 20 // passes over the catalog per measured pipeline
	diagnosePasses = 4  // passes Plumber's diagnosing trace drains
)

// ingest is the engine-bound drain: hand-set knobs, no modeled CPU and no
// cache, so reads, record decode, stage handoff and batching do all the
// work. Its tuning call is Plumber's diagnosis, one trace and its analysis.
type ingest struct{ t *tenant }

func (w *ingest) tenants() []*tenant { return []*tenant{w.t} }

func (w *ingest) setup(seed uint64) error {
	cat := data.Catalog{
		Name:                  "perfbench-ingest",
		NumFiles:              8,
		RecordsPerFile:        4096,
		MeanRecordBytes:       512,
		RecordBytesStddevFrac: 0.25,
		DecodeAmplification:   1,
	}
	if err := data.RegisterCatalog(cat); err != nil {
		return err
	}
	src := connector.NewMem("perfbench-ingest")
	src.AddCatalog(cat, seed)
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{Name: noopUDF, Cost: udf.Cost{SizeFactor: 1}}); err != nil {
		return err
	}
	n := runtime.NumCPU()
	g, err := pipeline.NewBuilder().
		Interleave(cat.Name, n).
		Map(noopUDF, n).
		Batch(ingestBatch).
		Repeat(ingestPasses).
		Prefetch(8).
		Build()
	if err != nil {
		return err
	}
	t := &tenant{
		name: "ingest", start: g, program: g, src: src, udfs: reg, seed: seed,
		planCores: n, pipelines: 1,
	}
	t.passExamples, t.passBytes = catalogTotals(cat, seed)
	t.passMinibatches = ceilDiv(t.passExamples, ingestBatch)
	t.traceMax = diagnosePasses * t.passMinibatches
	w.t = t
	return warmUp(t, ingestPasses)
}

// diagnose is ingest's tuning call: plumber.Trace and plumber.Analyze of
// the program as configured. It returns the observed rate in minibatches/s.
func (w *ingest) diagnose(src connector.Connector) (float64, error) {
	t := w.t
	snap, err := plumber.Trace(t.start, plumber.Options{
		Source: src, UDFs: t.udfs, Seed: t.seed, MaxMinibatches: t.traceMax,
	})
	if err != nil {
		return 0, err
	}
	an, err := plumber.Analyze(snap, t.udfs)
	if err != nil {
		return 0, err
	}
	return an.ObservedRate, nil
}

func (w *ingest) tuneOnce() (int, error) {
	_, err := w.diagnose(w.t.src)
	return 1, err
}

func (w *ingest) attributed(p layerTimes) time.Duration { return p.planTrace + p.analyze[0] }

func (w *ingest) round(rc *roundCtx) (roundResult, error) {
	t := w.t
	src := rc.wrap(t.src)
	var res roundResult
	t0 := time.Now()
	observed, err := w.diagnose(src)
	res.tune = time.Since(t0)
	rc.rec.add(0, "plumber.diagnose", t0, res.tune, rc.parent)
	if err != nil {
		return res, err
	}
	d, err := drain(t.program, t.engineOptions(src), 0, false, rc.rec, rc.parent)
	res.addErrs(d.errs)
	want := ingestPasses * t.passMinibatches
	if err != nil {
		res.expect(false, want, d.minibatches, "ingest drain: %v", err)
		return res, nil
	}
	res.examples = d.examples
	res.drainWall = d.wall()
	res.expect(d.examples == ingestPasses*t.passExamples && d.bytes == ingestPasses*t.passBytes,
		want, d.minibatches, "ingest delivered %d examples and %d bytes, want %d and %d",
		d.examples, d.bytes, ingestPasses*t.passExamples, ingestPasses*t.passBytes)
	res.accuracy = ratio(observed, float64(d.minibatches)/d.wall().Seconds())
	return res, nil
}

// ---- tune ------------------------------------------------------------

const (
	tuneRecordScale = 4  // records per shard relative to the suite's spec
	tuneEpochs      = 20 // training epochs per round
)

// tune is Plumber's own job: plan-first Optimize of the all-sequential
// random-augment scenario, then a spinning training drain of the result.
type tune struct {
	t      *tenant
	budget plumber.Budget
}

func (w *tune) tenants() []*tenant { return []*tenant{w.t} }

// suiteSpec returns the named scenario of the canonical suite.
func suiteSpec(name string) (scenario.Spec, error) {
	for _, s := range scenario.Suite(false) {
		if s.Name == name {
			return s, nil
		}
	}
	return scenario.Spec{}, fmt.Errorf("scenario %q not in the suite", name)
}

// scenarioTenant builds a scenario and wraps it as a tenant whose programs
// spin their modeled CPU.
func scenarioTenant(spec scenario.Spec) (*tenant, error) {
	sw, err := scenario.Build(spec)
	if err != nil {
		return nil, err
	}
	t := &tenant{
		name: spec.Name, start: sw.Graph, program: sw.Graph, src: sw.Source, udfs: sw.Registry,
		seed: sw.Spec.Seed, workScale: 1, spin: true, pipelines: 1,
	}
	t.passExamples, t.passBytes = catalogTotals(sw.Catalog, sw.Spec.Seed)
	t.passMinibatches = ceilDiv(t.passExamples, int64(sw.Spec.BatchSize))
	return t, nil
}

func (w *tune) setup(seed uint64) error {
	spec, err := suiteSpec("random-augment")
	if err != nil {
		return err
	}
	spec.RecordsPerFile *= tuneRecordScale
	spec.Seed = seed
	t, err := scenarioTenant(spec)
	if err != nil {
		return err
	}
	w.budget = plumber.Budget{Cores: runtime.NumCPU(), MemoryBytes: 64 << 20}
	t.planCores, t.planMemory = w.budget.Cores, w.budget.MemoryBytes
	t.pipelines, t.cache = tuneEpochs, true
	w.t = t
	return warmUp(t, 1)
}

func (w *tune) optimize(src connector.Connector) (*plumber.Result, error) {
	t := w.t
	return plumber.Optimize(t.start, w.budget, plumber.Options{
		Source: src, UDFs: t.udfs, Seed: t.seed, WorkScale: t.workScale, Spin: t.spin,
	})
}

func (w *tune) tuneOnce() (int, error) {
	res, err := w.optimize(w.t.src)
	if err != nil {
		return 0, err
	}
	return res.TracesUsed, nil
}

func (w *tune) attributed(p layerTimes) time.Duration {
	return p.planTrace + p.verifyTrace + p.analyze[0] + p.analyze[1] + p.solve + p.apply
}

func (w *tune) round(rc *roundCtx) (roundResult, error) {
	t := w.t
	src := rc.wrap(t.src)
	var res roundResult
	t0 := time.Now()
	tuned, err := w.optimize(src)
	res.tune = time.Since(t0)
	rc.rec.add(0, "plumber.optimize", t0, res.tune, rc.parent)
	if err != nil {
		return res, err
	}
	t.program = tuned.Final
	store := engine.NewCacheStore()
	var fillRate float64
	for epoch := 0; epoch < tuneEpochs; epoch++ {
		opts := t.engineOptions(src)
		opts.Caches = store
		d, err := drain(tuned.Final, opts, 0, false, rc.rec, rc.parent)
		res.addErrs(d.errs)
		if err != nil {
			res.expect(false, t.passMinibatches, d.minibatches, "tune epoch %d: %v", epoch, err)
			continue
		}
		res.examples += d.examples
		res.drainWall += d.wall()
		res.expect(d.examples == t.passExamples, t.passMinibatches, d.minibatches,
			"tune epoch %d delivered %d examples, want %d", epoch, d.examples, t.passExamples)
		if epoch == 0 {
			fillRate = float64(d.minibatches) / d.drainTime.Seconds()
		}
	}
	res.accuracy = ratio(tuned.PredictedMinibatchesPerSec, fillRate)
	return res, nil
}

// ---- colocate --------------------------------------------------------

// Tenant sizes relative to the suite's specs, chosen so both tenants stay
// busy for most of the concurrent run.
const (
	visionRecordScale = 4
	tinyFileScale     = 48
)

// colocate arbitrates vision and tiny-files under one core budget and runs
// them at once on one shared worker pool.
type colocate struct {
	ts     []*tenant
	budget plumber.Budget
}

func (w *colocate) tenants() []*tenant { return w.ts }

func (w *colocate) setup(seed uint64) error {
	w.budget = plumber.Budget{Cores: runtime.NumCPU(), MemoryBytes: 0}
	for _, name := range []string{"vision", "tiny-files"} {
		spec, err := suiteSpec(name)
		if err != nil {
			return err
		}
		switch name {
		case "vision":
			spec.RecordsPerFile *= visionRecordScale
		case "tiny-files":
			spec.Files *= tinyFileScale
		}
		spec.Seed = seed
		t, err := scenarioTenant(spec)
		if err != nil {
			return err
		}
		t.planCores = w.budget.Cores / 2
		t.pipelines = 3 // epochs per tenant in the traced run's engine probe
		if err := warmUp(t, 1); err != nil {
			return err
		}
		w.ts = append(w.ts, t)
	}
	return nil
}

func (w *colocate) arbitrate(wrap func(connector.Connector) connector.Connector) (*plumber.Arbiter, *plumber.Decision, error) {
	ts := make([]plumber.Tenant, len(w.ts))
	for i, t := range w.ts {
		ts[i] = t.hostTenant(wrap(t.src))
	}
	return plumber.ArbitrateAll(ts, w.budget)
}

// hostTenant describes the tenant to the host arbiter.
func (t *tenant) hostTenant(src connector.Connector) plumber.Tenant {
	return plumber.Tenant{
		Name: t.name, Weight: 1, Graph: t.start, Source: src, UDFs: t.udfs,
		Seed: t.seed, WorkScale: t.workScale, Spin: t.spin, MaxMinibatches: t.traceMax,
	}
}

func (w *colocate) tuneOnce() (int, error) {
	_, dec, err := w.arbitrate(func(c connector.Connector) connector.Connector { return c })
	if err != nil {
		return 0, err
	}
	return dec.TracesUsed, nil
}

func (w *colocate) attributed(p layerTimes) time.Duration { return p.addSum }

func (w *colocate) round(rc *roundCtx) (roundResult, error) {
	var res roundResult
	t0 := time.Now()
	arb, dec, err := w.arbitrate(rc.wrap)
	res.tune = time.Since(t0)
	rc.rec.add(0, "plumber.arbitrate_all", t0, res.tune, rc.parent)
	if err != nil {
		return res, err
	}
	byName := map[string]*tenant{}
	for _, t := range w.ts {
		byName[t.name] = t
	}
	for _, s := range dec.Shares {
		if t, ok := byName[s.Tenant]; ok {
			t.program, t.planCores, t.planMemory = s.Program, s.Budget.Cores, s.Budget.MemoryBytes
		}
	}
	r0 := time.Now()
	rep, err := arb.RunConcurrent(dec, plumber.RunOptions{Spin: true})
	res.drainWall = time.Since(r0)
	rc.rec.add(0, "host.run_concurrent", r0, res.drainWall, rc.parent)
	if err != nil {
		return res, err
	}
	res.report = rep
	res.accuracy = 1
	measured := map[string]plumber.MeasuredShare{}
	for _, ms := range rep.Tenants {
		measured[ms.Tenant] = ms
	}
	for _, t := range w.ts {
		ms, ok := measured[t.name]
		res.examples += ms.Examples
		res.errs.Retries += ms.Retries
		res.errs.Errors += ms.Errors
		res.errs.GaveUp += ms.GaveUp
		res.expect(ok && ms.Status == "ok" && ms.Examples == t.passExamples && ms.Errors == 0 && ms.Retries == 0 && ms.GaveUp == 0,
			t.passMinibatches, ms.Minibatches, "colocate tenant %s: reported %v, status %q, %d examples (want %d), errors %d, retries %d, gave up %d %s",
			t.name, ok, ms.Status, ms.Examples, t.passExamples, ms.Errors, ms.Retries, ms.GaveUp, ms.Failure)
		if a := ratio(ms.PredictedMinibatchesPerSec, ms.MeasuredMinibatchesPerSec); a < res.accuracy {
			res.accuracy = a
		}
	}
	return res, nil
}
