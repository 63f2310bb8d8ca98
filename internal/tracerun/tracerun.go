// Package tracerun runs one traced pass of a pipeline program: the single
// trace routine behind the façade's Trace and Optimize and the host
// arbiter's tenant traces, planning traces over a file sample included.
package tracerun

import (
	"context"
	"fmt"
	"runtime"

	"plumber/internal/data"
	"plumber/internal/engine"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
)

// Run traces one pass of g, draining up to maxMinibatches root elements
// (0 drains to EOF) — over the file sample when opts.FileSample is set.
// ctx cancels the drain. opts configures the engine; Run adds the
// collector. machine labels the snapshot, as does opts.PoolTenant when
// set; a spun trace records at most GOMAXPROCS cores: the cores it could
// actually run on, which is what the analysis calibrates against.
func Run(ctx context.Context, g *pipeline.Graph, opts engine.Options, machine trace.Machine, maxMinibatches int64) (*trace.Snapshot, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// A missing catalog would leave TotalFiles at 0 and silently skew the
	// §A dataset-size rescale — fail instead.
	cats, err := sourceCatalogs(g)
	if err != nil {
		return nil, fmt.Errorf("trace source catalog: %w", err)
	}
	totalFiles := 0
	for _, cat := range cats {
		totalFiles += cat.NumFiles
	}
	if opts.Spin {
		machine.Cores = min(machine.Cores, runtime.GOMAXPROCS(0))
	}
	col, err := trace.NewCollector(g, machine)
	if err != nil {
		return nil, err
	}
	if opts.PoolTenant != "" {
		col.SetTenant(opts.PoolTenant)
	}
	opts.FS.AddObserver(col)
	defer opts.FS.RemoveObserver(col)
	opts.Collector = col
	p, err := engine.New(g, opts)
	if err != nil {
		return nil, err
	}
	if _, _, err := p.DrainCtx(ctx, maxMinibatches); err != nil {
		p.Close() // the drain error wins
		return nil, fmt.Errorf("trace drain: %w", err)
	}
	// Close before snapshotting: sequential iterators flush their buffered
	// counter shards on Close, and a snapshot taken earlier would undercount
	// every node by up to one flush interval.
	if err := p.Close(); err != nil {
		return nil, fmt.Errorf("trace close: %w", err)
	}
	return col.Snapshot(0, totalFiles), nil
}

// sourceCatalogs resolves the catalog of every source in the graph, the
// branch catalogs of a DAG-shaped pipeline included.
func sourceCatalogs(g *pipeline.Graph) ([]data.Catalog, error) {
	srcs, err := g.Sources()
	if err != nil {
		return nil, err
	}
	cats := make([]data.Catalog, len(srcs))
	for i, n := range srcs {
		if cats[i], err = data.CatalogByName(n.Catalog); err != nil {
			return nil, err
		}
	}
	return cats, nil
}

// minSampleMinibatches is the fewest root minibatches a planning file
// sample may hold. Every trace pays a fixed start-up and wind-down cost
// (~7 ms on random-augment); over a shorter sample that cost takes a much
// larger share of the trace than over the full pass the plan is verified
// against, and the efficiency calibration drifts with it.
const minSampleMinibatches = 128

// SampleFits reports whether a planning trace of g may pass over the file
// sample (engine.Options.FileSample) rather than the whole catalog: every
// source catalog has uniform file sizes, so its first files carry their
// share of the bytes, and the sample holds at least minSampleMinibatches
// root minibatches.
func SampleFits(g *pipeline.Graph) bool {
	cats, err := sourceCatalogs(g)
	batch, berr := g.BatchSizeAtRoot()
	if err != nil || berr != nil {
		return false
	}
	var examples int64
	for _, cat := range cats {
		if cat.FileSizeSkew > 0 {
			return false
		}
		examples += int64(engine.SampledFiles(cat.MaterializedFiles())) * int64(cat.RecordsPerFile)
	}
	return examples >= minSampleMinibatches*int64(batch)
}
