package main

import (
	"fmt"
	"io"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/engine"
	"plumber/internal/pipeline"
	"plumber/internal/udf"
)

// tenant is one pipeline of a workload, with everything the measured drain
// and the per-layer probes need to run it.
type tenant struct {
	name string
	// start is the program handed to Plumber; program is the one the
	// measured drain runs (start with hand-set knobs on ingest, the tuned
	// or arbitrated program elsewhere, refreshed by every round).
	start   *pipeline.Graph
	program *pipeline.Graph
	src     connector.Connector
	udfs    *udf.Registry
	seed    uint64
	// workScale and spin are the modeled-CPU settings of every run of the
	// tenant's programs.
	workScale float64
	spin      bool
	// traceMax bounds Plumber's traces of the tenant (0 = one pass).
	traceMax int64
	// planCores and planMemory are the tenant's own slice of the budget:
	// the whole budget on single-pipeline workloads, the arbitrated share
	// on colocate (refreshed by every round).
	planCores  int
	planMemory int64

	// passExamples, passMinibatches and passBytes are one pass over the
	// tenant's catalog as the consumer sees it.
	passExamples    int64
	passMinibatches int64
	passBytes       int64
	// pipelines is how many pipelines one drain of program builds, one per
	// epoch; 1 when the program repeats itself. cache shares one cache
	// store across them, so a planned cache fills in the first epoch and
	// serves the rest.
	pipelines int
	cache     bool
}

// engineOptions are the options every engine run of the tenant uses.
func (t *tenant) engineOptions(src connector.Connector) engine.Options {
	return engine.Options{FS: src, UDFs: t.udfs, Seed: t.seed, WorkScale: t.workScale, Spin: t.spin}
}

// drained is what the benchmark's consumer saw on one pipeline.
type drained struct {
	minibatches, examples, bytes int64
	// newTime is engine.New, drainTime the first Next to end of stream,
	// closeTime Pipeline.Close.
	newTime, drainTime, closeTime time.Duration
	// epochs holds the wall time of each pass over the catalog, cut where
	// the delivered example count crosses a multiple of the pass size.
	epochs []time.Duration
	// waits holds every Next call's duration when asked for.
	waits []time.Duration
	errs  engine.ErrorStats
}

func (d drained) wall() time.Duration { return d.newTime + d.drainTime + d.closeTime }

// drain is the closed-loop consumer: a trainer with zero step time that
// calls Next again as soon as the previous call returns, to end of stream.
func drain(g *pipeline.Graph, opts engine.Options, passExamples int64, timeNext bool, rec *recorder, parent int64) (drained, error) {
	var d drained
	t0 := time.Now()
	p, err := engine.New(g, opts)
	d.newTime = time.Since(t0)
	rec.add(0, "engine.new", t0, d.newTime, parent)
	if err != nil {
		return d, fmt.Errorf("engine.New: %w", err)
	}
	start := time.Now()
	last := start
	boundary := passExamples
	for {
		var e data.Element
		if timeNext {
			s := time.Now()
			e, err = p.Next()
			d.waits = append(d.waits, time.Since(s))
		} else {
			e, err = p.Next()
		}
		if err != nil {
			break
		}
		d.minibatches++
		d.examples += int64(e.Count)
		d.bytes += int64(len(e.Payload))
		if passExamples > 0 && d.examples >= boundary {
			now := time.Now()
			d.epochs = append(d.epochs, now.Sub(last))
			last = now
			boundary += passExamples
		}
		p.Recycle(e)
	}
	d.drainTime = time.Since(start)
	rec.add(0, "engine.drain", start, d.drainTime, parent)
	c0 := time.Now()
	cerr := p.Close()
	d.closeTime = time.Since(c0)
	rec.add(0, "engine.close", c0, d.closeTime, parent)
	d.errs = p.ErrorStats()
	if err != io.EOF {
		return d, fmt.Errorf("drain: %w", err)
	}
	if cerr != nil {
		return d, fmt.Errorf("close: %w", cerr)
	}
	return d, nil
}
