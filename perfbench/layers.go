package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"plumber"
	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/engine"
	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
	"plumber/internal/rewrite"
	"plumber/internal/trace"
)

// Probe repetitions in the traced run. Each probe alternates with its
// counterpart (untraced and collector-traced engine drains; the tuning call
// and its layer-by-layer replay), so drift hits both sides alike.
const (
	engineProbeReps = 2
	planProbeReps   = 3
	decodeProbeTime = 200 * time.Millisecond
)

// accountingTolerance is how far, as a share of tune_s, the layer times of
// the replayed tuning call may sum from the timed call before the traced
// run reports its accounting check as failed.
const accountingTolerance = 0.15

// layerTimes is one replay of the tuning call, layer by layer, summed over
// the workload's tenants.
type layerTimes struct {
	planTrace, verifyTrace time.Duration
	analyze                [2]time.Duration
	solve, apply           time.Duration
	adds                   []time.Duration
	addSum                 time.Duration
}

// tracedRun measures the per-layer metrics. Its measured phase alternates
// untraced rounds with rounds through the timing wrappers and the span
// recorder, so their difference is the benchmark's own tracing overhead.
func tracedRun(w workload, window time.Duration, rec *recorder) (map[string]metric, []roundResult, map[string]any, error) {
	wrappers := map[connector.Connector]*timedConnector{}
	wrap := func(c connector.Connector) connector.Connector {
		tc, ok := wrappers[c]
		if !ok {
			tc = newTimedConnector(c, rec)
			wrappers[c] = tc
		}
		return tc
	}
	plain := &roundCtx{wrap: identity}
	var rounds []roundResult
	var plainWalls, tracedWalls []float64
	var tracedTotal time.Duration
	start := time.Now()
	for i := 0; len(tracedWalls) < 2 || time.Since(start) < window; i++ {
		runtime.GC()
		rc := plain
		var end func()
		if i%2 == 1 {
			var id int64
			id, end = rec.begin("round", 0)
			rc = &roundCtx{rec: rec, parent: id, wrap: wrap}
		}
		t0 := time.Now()
		r, err := w.round(rc)
		d := time.Since(t0)
		if end != nil {
			end()
		}
		if err != nil {
			return nil, nil, nil, err
		}
		rounds = append(rounds, r)
		if rc == plain {
			plainWalls = append(plainWalls, d.Seconds())
		} else {
			tracedWalls = append(tracedWalls, d.Seconds())
			tracedTotal += d
		}
	}

	m := map[string]metric{}
	var openNanos, readNanos, readBytes int64
	for _, tc := range wrappers {
		openNanos += tc.openNanos.Load()
		readNanos += tc.readNanos.Load()
		readBytes += tc.readBytes.Load()
	}
	opens := seconds(rec.durations("connector.open"))
	m["connector.open_us.p50"] = metric{quantile(opens, 0.5) * 1e6, "us"}
	m["connector.open_us.p99"] = metric{quantile(opens, 0.99) * 1e6, "us"}
	m["connector.read_mb_per_s"] = metric{float64(readBytes) / 1e6 / (float64(readNanos) / 1e9), "MB/s"}
	m["connector.read_busy_fraction"] = metric{
		float64(openNanos+readNanos) / (float64(tracedTotal) * float64(runtime.GOMAXPROCS(0))), "ratio"}
	m["bench.span_overhead_fraction"] = metric{median(tracedWalls)/median(plainWalls) - 1, "ratio"}

	ts := w.tenants()
	ns, err := probeDecode(ts, rec)
	if err != nil {
		return nil, nil, nil, err
	}
	m["data.decode_ns_per_record"] = metric{ns, "ns"}

	if err := probeEngine(ts, rec, m); err != nil {
		return nil, nil, nil, err
	}
	var errCount int64
	for _, r := range rounds {
		errCount += r.errs.Errors
	}
	m["engine.errors"] = metric{float64(errCount) + m["engine.errors"].Value, "count"}

	report, err := probePlumber(w, ts, rec, m)
	if err != nil {
		return nil, nil, nil, err
	}
	if host := hostReport(rounds); host != nil {
		report["host_tenants"] = host
	}
	return m, rounds, report, nil
}

func identity(c connector.Connector) connector.Connector { return c }

// probeDecode times a standalone data.RecordReader pass over every shard of
// the workload's tenants, repeated until it has run decodeProbeTime, and
// returns the median nanoseconds per record over the passes.
func probeDecode(ts []*tenant, rec *recorder) (float64, error) {
	var perRecord []float64
	for start := time.Now(); len(perRecord) < 3 || time.Since(start) < decodeProbeTime; {
		t0 := time.Now()
		var records int64
		for _, t := range ts {
			for _, path := range t.src.List() {
				r, err := t.src.Open(path)
				if err != nil {
					return 0, err
				}
				rr := data.NewRecordReader(r)
				for {
					if _, err = rr.Next(); err != nil {
						break
					}
					records++
				}
				r.Close()
				if !errors.Is(err, io.EOF) {
					return 0, fmt.Errorf("decode %s: %w", path, err)
				}
			}
		}
		d := time.Since(t0)
		rec.add(0, "data.decode_pass", t0, d, 0)
		perRecord = append(perRecord, float64(d.Nanoseconds())/float64(records))
	}
	return median(perRecord), nil
}

// engineRun is one drain of every tenant's program at once, each by its
// own closed-loop consumer, the tenants sharing one worker pool when there
// are several.
type engineRun struct {
	wall          time.Duration
	examples      int64
	drainTime     time.Duration
	waits         []time.Duration
	fill, serve   []time.Duration
	news, closes  []time.Duration
	errs          engine.ErrorStats
	parks, steals int64
	snapshots     []time.Duration
}

func runEngine(ts []*tenant, collect bool, rec *recorder) (*engineRun, error) {
	var pool *engine.SharedPool
	if len(ts) > 1 {
		pool = engine.NewSharedPool(runtime.NumCPU())
		for _, t := range ts {
			if err := pool.Admit(t.name, t.planCores); err != nil {
				return nil, err
			}
		}
	}
	name := "probe.engine"
	if collect {
		name = "probe.engine_collected"
	}
	id, end := rec.begin(name, 0)
	defer end()
	out := &engineRun{}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for _, t := range ts {
		wg.Add(1)
		go func(t *tenant) {
			defer wg.Done()
			opts := t.engineOptions(t.src)
			if pool != nil {
				opts.Pool, opts.PoolTenant = pool, t.name
			}
			if t.cache {
				opts.Caches = engine.NewCacheStore()
			}
			var epochs []time.Duration
			for i := 0; i < t.pipelines; i++ {
				var col *trace.Collector
				if collect {
					c, err := trace.NewCollector(t.program, trace.Machine{Name: "perfbench", Cores: runtime.NumCPU()})
					if err != nil {
						mu.Lock()
						firstErr = err
						mu.Unlock()
						return
					}
					col = c
					opts.Collector = col
				}
				d, err := drain(t.program, opts, t.passExamples, !collect, rec, id)
				var snapTime time.Duration
				var parks, steals int64
				if col != nil {
					s0 := time.Now()
					snap := col.Snapshot(0, 0)
					snapTime = time.Since(s0)
					rec.add(0, "trace.snapshot", s0, snapTime, id)
					for _, n := range snap.Nodes {
						parks += n.HandoffParks
						steals += n.HandoffSteals
					}
				}
				epochs = append(epochs, d.epochs...)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", t.name, err)
				}
				out.examples += d.examples
				out.drainTime += d.drainTime
				out.waits = append(out.waits, d.waits...)
				out.news = append(out.news, d.newTime)
				out.closes = append(out.closes, d.closeTime)
				out.errs.Errors += d.errs.Errors
				out.parks += parks
				out.steals += steals
				if col != nil {
					out.snapshots = append(out.snapshots, snapTime)
				}
				mu.Unlock()
			}
			mu.Lock()
			if len(epochs) > 0 {
				out.fill = append(out.fill, epochs[0])
				out.serve = append(out.serve, epochs[1:]...)
			}
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out, firstErr
}

// runtimeCounters reads the allocation and GC CPU counters the engine
// metrics are differences of.
type runtimeCounters struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeCounters{ms.Mallocs, ms.TotalAlloc, s[0].Value.Float64(), s[1].Value.Float64()}
}

// probeEngine alternates untraced drains, which give the consumer-side,
// allocation, epoch and construction metrics, with drains that attach a
// trace collector, which give the handoff counters, the snapshot cost and
// the collector's overhead.
func probeEngine(ts []*tenant, rec *recorder, m map[string]metric) error {
	var plain, collected []*engineRun
	var allocs, allocBytes, gcFrac []float64
	for i := 0; i < engineProbeReps; i++ {
		runtime.GC()
		before := readRuntime()
		r, err := runEngine(ts, false, rec)
		if err != nil {
			return err
		}
		after := readRuntime()
		plain = append(plain, r)
		allocs = append(allocs, float64(after.mallocs-before.mallocs)/float64(r.examples))
		allocBytes = append(allocBytes, float64(after.allocBytes-before.allocBytes)/float64(r.examples))
		if dt := after.totalCPU - before.totalCPU; dt > 0 {
			gcFrac = append(gcFrac, (after.gcCPU-before.gcCPU)/dt)
		}
		runtime.GC()
		c, err := runEngine(ts, true, rec)
		if err != nil {
			return err
		}
		collected = append(collected, c)
	}
	var waits []float64
	var waitFrac, fill, serve, news, closes, plainWall, colWall, parks, steals, snaps []float64
	var errCount int64
	for _, r := range plain {
		waits = append(waits, seconds(r.waits)...)
		var inNext time.Duration
		for _, w := range r.waits {
			inNext += w
		}
		waitFrac = append(waitFrac, inNext.Seconds()/r.drainTime.Seconds())
		fill = append(fill, seconds(r.fill)...)
		serve = append(serve, seconds(r.serve)...)
		news = append(news, seconds(r.news)...)
		closes = append(closes, seconds(r.closes)...)
		plainWall = append(plainWall, r.wall.Seconds())
		errCount += r.errs.Errors
	}
	for _, c := range collected {
		colWall = append(colWall, c.wall.Seconds())
		parks = append(parks, 1000*float64(c.parks)/float64(c.examples))
		steals = append(steals, 1000*float64(c.steals)/float64(c.examples))
		snaps = append(snaps, seconds(c.snapshots)...)
		errCount += c.errs.Errors
	}
	m["engine.next_wait_us.p50"] = metric{quantile(waits, 0.5) * 1e6, "us"}
	m["engine.next_wait_us.p99"] = metric{quantile(waits, 0.99) * 1e6, "us"}
	m["engine.next_wait_fraction"] = metric{median(waitFrac), "ratio"}
	m["engine.allocs_per_example"] = metric{median(allocs), "count"}
	m["engine.alloc_bytes_per_example"] = metric{median(allocBytes), "B"}
	m["engine.gc_cpu_fraction"] = metric{median(gcFrac), "ratio"}
	m["engine.handoff_parks_per_1k"] = metric{median(parks), "count"}
	m["engine.handoff_steals_per_1k"] = metric{median(steals), "count"}
	m["engine.cache_fill_epoch_s"] = metric{median(fill), "s"}
	m["engine.cache_serve_epoch_s"] = metric{median(serve), "s"}
	m["engine.new_ms"] = metric{median(news) * 1e3, "ms"}
	m["engine.close_ms"] = metric{median(closes) * 1e3, "ms"}
	m["engine.errors"] = metric{float64(errCount), "count"}
	m["trace.overhead_fraction"] = metric{median(colWall)/median(plainWall) - 1, "ratio"}
	m["trace.snapshot_ms"] = metric{median(snaps) * 1e3, "ms"}
	return nil
}

// replay runs the tuning call's steps one by one for every tenant, as
// plan-first Optimize makes them: trace the starting program, analyze,
// solve, apply the plan, trace the planned program with a cold cache and
// analyze again. Then it admits every tenant to a fresh arbiter, timing
// each Arbiter.Add.
func replay(ts []*tenant, rec *recorder) (layerTimes, error) {
	var lt layerTimes
	step := func(name string, dst *time.Duration, f func() error) error {
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		rec.add(0, name, t0, d, 0)
		*dst += d
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	var budget plumber.Budget
	for _, t := range ts {
		b := plumber.Budget{Cores: t.planCores, MemoryBytes: t.planMemory}
		budget.MemoryBytes += t.planMemory
		opts := plumber.Options{
			Source: t.src, UDFs: t.udfs, Seed: t.seed, WorkScale: t.workScale, Spin: t.spin,
			MaxMinibatches: t.traceMax,
			Machine:        trace.Machine{Name: "plumber", Cores: b.Cores, MemoryBytes: b.MemoryBytes},
		}
		var snap *trace.Snapshot
		var an [2]*ops.Analysis
		var pl *plan.Plan
		var planned *pipeline.Graph
		err := step("plumber.trace", &lt.planTrace, func() (err error) {
			snap, err = plumber.Trace(t.start, opts)
			return err
		})
		if err == nil {
			err = step("ops.analyze", &lt.analyze[0], func() (err error) {
				an[0], err = plumber.Analyze(snap, t.udfs)
				return err
			})
		}
		if err == nil {
			err = step("plan.solve", &lt.solve, func() (err error) {
				pl, err = plan.Solve(an[0], b)
				return err
			})
		}
		if err == nil {
			err = step("rewrite.apply_plan", &lt.apply, func() (err error) {
				planned, _, err = rewrite.ApplyPlan(t.start.Clone(), pl)
				return err
			})
		}
		if err == nil {
			cold := opts
			cold.Caches = engine.NewCacheStore()
			err = step("plumber.trace_verify", &lt.verifyTrace, func() (err error) {
				snap, err = plumber.Trace(planned, cold)
				return err
			})
		}
		if err == nil {
			err = step("ops.analyze", &lt.analyze[1], func() (err error) {
				an[1], err = plumber.Analyze(snap, t.udfs)
				return err
			})
		}
		if err != nil {
			return lt, fmt.Errorf("%s: %w", t.name, err)
		}
	}
	budget.Cores = runtime.NumCPU()
	arb := plumber.NewArbiter(budget)
	for _, t := range ts {
		var d time.Duration
		if err := step("host.add", &d, func() error {
			_, err := arb.Add(t.hostTenant(t.src))
			return err
		}); err != nil {
			return lt, fmt.Errorf("%s: %w", t.name, err)
		}
		lt.adds = append(lt.adds, d)
		lt.addSum += d
	}
	return lt, nil
}

// probePlumber alternates the timed tuning call with its layer-by-layer
// replay and checks that the replayed layers account for the call.
func probePlumber(w workload, ts []*tenant, rec *recorder, m map[string]metric) (map[string]any, error) {
	var tuneS, attributed, planTrace, verifyTrace, analyze, solve, apply, adds []float64
	traces := map[int]int{}
	for i := 0; i < planProbeReps; i++ {
		runtime.GC()
		t0 := time.Now()
		n, err := w.tuneOnce()
		d := time.Since(t0)
		rec.add(0, "tuning_call", t0, d, 0)
		if err != nil {
			return nil, err
		}
		tuneS = append(tuneS, d.Seconds())
		traces[n]++
		runtime.GC()
		lt, err := replay(ts, rec)
		if err != nil {
			return nil, err
		}
		attributed = append(attributed, w.attributed(lt).Seconds())
		planTrace = append(planTrace, lt.planTrace.Seconds())
		verifyTrace = append(verifyTrace, lt.verifyTrace.Seconds())
		analyze = append(analyze, lt.analyze[0].Seconds(), lt.analyze[1].Seconds())
		solve = append(solve, lt.solve.Seconds())
		apply = append(apply, lt.apply.Seconds())
		adds = append(adds, seconds(lt.adds)...)
	}
	tracesUsed := 0
	for n, c := range traces {
		if c > traces[tracesUsed] {
			tracesUsed = n
		}
	}
	m["ops.analyze_ms"] = metric{median(analyze) * 1e3, "ms"}
	m["plan.solve_ms"] = metric{median(solve) * 1e3, "ms"}
	m["rewrite.apply_plan_ms"] = metric{median(apply) * 1e3, "ms"}
	m["plumber.plan_trace_s"] = metric{median(planTrace), "s"}
	m["plumber.verify_trace_s"] = metric{median(verifyTrace), "s"}
	m["plumber.traces_used"] = metric{float64(tracesUsed), "count"}
	m["host.add_ms"] = metric{median(adds) * 1e3, "ms"}
	tune, attr := median(tuneS), median(attributed)
	rest := tune - attr
	m["plumber.unattributed_s"] = metric{rest, "s"}
	m["plumber.unattributed_fraction"] = metric{rest / tune, "ratio"}
	return map[string]any{
		"accounting": map[string]any{
			"tune_s":         tune,
			"attributed_s":   attr,
			"unattributed_s": rest,
			"tolerance":      accountingTolerance,
			"within":         math.Abs(rest/tune) <= accountingTolerance,
			"traces_used":    traces,
		},
	}, nil
}

// hostReport gives the concurrent runs' per-tenant host figures, as the
// median over rounds, or nil when the workload has no concurrent run.
func hostReport(rounds []roundResult) map[string]map[string]float64 {
	per := map[string]map[string][]float64{}
	for _, r := range rounds {
		if r.report == nil {
			continue
		}
		for _, ms := range r.report.Tenants {
			f := per[ms.Tenant]
			if f == nil {
				f = map[string][]float64{}
				per[ms.Tenant] = f
			}
			f["held_share_fraction"] = append(f["held_share_fraction"], ms.HeldShareFraction)
			f["borrows"] = append(f["borrows"], float64(ms.Borrows))
			f["peak_workers"] = append(f["peak_workers"], float64(ms.PeakWorkers))
			f["sequential_held_core_s"] = append(f["sequential_held_core_s"], ms.SequentialHeldCoreSeconds)
			f["elapsed_s"] = append(f["elapsed_s"], ms.Seconds)
			f["accuracy"] = append(f["accuracy"], ratio(ms.PredictedMinibatchesPerSec, ms.MeasuredMinibatchesPerSec))
		}
	}
	if len(per) == 0 {
		return nil
	}
	out := map[string]map[string]float64{}
	for n, f := range per {
		out[n] = map[string]float64{}
		for k, v := range f {
			out[n][k] = median(v)
		}
	}
	return out
}
