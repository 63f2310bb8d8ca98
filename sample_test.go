package plumber

import (
	"sync"
	"testing"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/engine"
	"plumber/internal/pipeline"
	"plumber/internal/simfs"
	"plumber/internal/tracerun"
	"plumber/internal/udf"
)

// sampleCatalog is the façade catalog grown until a planning trace of
// cachedGraph over half its files holds enough minibatches to sample.
var sampleCatalog = data.Catalog{
	Name:                  "facade-sample",
	NumFiles:              4,
	RecordsPerFile:        1024,
	MeanRecordBytes:       256,
	RecordBytesStddevFrac: 0.2,
	DecodeAmplification:   1,
}

// sampleSetup registers sampleCatalog and returns its connector, the
// façade's UDFs, the program with a cache above the decode, and the
// catalog's framed bytes, in whole and in its first half of files.
func sampleSetup(t *testing.T) (src Connector, reg *udf.Registry, g *pipeline.Graph, catalogBytes, sampleBytes int64) {
	t.Helper()
	_, reg = facadeSetup(t)
	if err := data.RegisterCatalog(sampleCatalog); err != nil {
		t.Fatal(err)
	}
	fs := simfs.New(simfs.Device{Name: "facade-sample-mem"}, false)
	fs.AddCatalog(sampleCatalog, 11)
	g, err := pipeline.NewBuilder().
		Interleave(sampleCatalog.Name, 1).
		Map("facade_decode", 1).
		Cache().
		Batch(8).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if !tracerun.SampleFits(g) {
		t.Fatal("planning traces of the test program do not sample")
	}
	for i, f := range sampleCatalog.GenerateFileSpecs(11) {
		catalogBytes += f.TotalBytes
		if i < sampleCatalog.NumFiles/2 {
			sampleBytes += f.TotalBytes
		}
	}
	return connector.FromSimFS(fs), reg, g, catalogBytes, sampleBytes
}

// drainExamples drains g once on a plain engine sharing store and returns
// the examples it delivered.
func drainExamples(t *testing.T, g *pipeline.Graph, src Connector, opts Options, store *engine.CacheStore) int64 {
	t.Helper()
	p, err := engine.New(g, engine.Options{FS: src, UDFs: opts.UDFs, Caches: store})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, examples, err := p.Drain(0)
	if err != nil {
		t.Fatal(err)
	}
	return examples
}

// byteCounter sums every byte the connector serves.
type byteCounter struct {
	mu    sync.Mutex
	bytes int64
}

func (b *byteCounter) ObserveRead(_ string, n int64) {
	b.mu.Lock()
	b.bytes += n
	b.mu.Unlock()
}

// served returns the bytes src serves while fn runs.
func served(src Connector, fn func()) int64 {
	var b byteCounter
	src.AddObserver(&b)
	defer src.RemoveObserver(&b)
	fn()
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytes
}

// TestSampledTraceLeavesNoWarmCache pins the sample/cache boundary from a
// cold store: a planning trace over the file sample fills a cache with
// half the catalog, and a full trace or a plain drain sharing the caller's
// CacheStore must not read that half as warm — both deliver the whole
// catalog.
func TestSampledTraceLeavesNoWarmCache(t *testing.T) {
	src, reg, g, _, _ := sampleSetup(t)
	store := engine.NewCacheStore()
	opts := Options{Source: src, UDFs: reg, WorkScale: 1, Caches: store}
	total := int64(sampleCatalog.NumFiles * sampleCatalog.RecordsPerFile)

	planOpts := opts
	planOpts.fileSample = true
	sampled, err := Trace(g, planOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := sampled.Nodes["batch_1"].ElementsProduced; got != total/2/8 {
		t.Fatalf("sampled trace produced %d minibatches, want %d (half the files)", got, total/2/8)
	}
	full, err := Trace(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := full.Nodes["batch_1"].ElementsProduced; got != total/8 {
		t.Fatalf("full trace after a sampled one produced %d minibatches, want %d", got, total/8)
	}
	if got := drainExamples(t, g, src, opts, store); got != total {
		t.Fatalf("drain after the traces delivered %d examples, want %d", got, total)
	}
}

// TestSampledTraceKeepsSharedStoreWarm starts from a warm shared store: a
// sampled trace must neither read the warm entry nor replace it, so a full
// trace after it is still served entirely from the cache.
func TestSampledTraceKeepsSharedStoreWarm(t *testing.T) {
	src, reg, g, _, sampleBytes := sampleSetup(t)
	store := engine.NewCacheStore()
	opts := Options{Source: src, UDFs: reg, WorkScale: 1, Caches: store}
	total := int64(sampleCatalog.NumFiles * sampleCatalog.RecordsPerFile)
	if got := drainExamples(t, g, src, opts, store); got != total {
		t.Fatalf("warm-up drain delivered %d examples, want %d", got, total)
	}

	planOpts := opts
	planOpts.fileSample = true
	if got := served(src, func() {
		if _, err := Trace(g, planOpts); err != nil {
			t.Fatal(err)
		}
	}); got != sampleBytes {
		t.Fatalf("sampled trace read %d bytes, want its own cold sample's %d", got, sampleBytes)
	}
	var full int64
	if got := served(src, func() {
		snap, err := Trace(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		full = snap.Nodes["batch_1"].ElementsProduced
	}); got != 0 {
		t.Fatalf("full trace after the sample read %d bytes from storage, want a warm cache", got)
	}
	if full != total/8 {
		t.Fatalf("warm full trace produced %d minibatches, want %d", full, total/8)
	}
}

// optimizeServed runs Optimize on g and returns its result and the bytes
// it read from src.
func optimizeServed(t *testing.T, g *pipeline.Graph, src Connector, budget Budget, opts Options) (*Result, int64) {
	t.Helper()
	var res *Result
	got := served(src, func() {
		var err error
		if res, err = Optimize(g, budget, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Optimize: %d traces, prediction error %.3f, %d bytes read", res.TracesUsed, res.PredictionError, got)
	return res, got
}

// TestOptimizeSampledPlanKeepsCacheCold runs Optimize on a program that
// already holds a cache, with one cold CacheStore shared by the call and a
// later drain: the plan and verify traces each read exactly the file
// sample, on private stores, so the caller's store holds nothing
// afterwards and a drain of the tuned program reads and delivers the
// whole catalog.
func TestOptimizeSampledPlanKeepsCacheCold(t *testing.T) {
	src, reg, g, catalogBytes, sampleBytes := sampleSetup(t)
	store := engine.NewCacheStore()
	opts := Options{Source: src, UDFs: reg, WorkScale: 1, Caches: store, RefineTolerance: -1}
	total := int64(sampleCatalog.NumFiles * sampleCatalog.RecordsPerFile)

	res, got := optimizeServed(t, g, src, Budget{Cores: 2, MemoryBytes: 64 << 20}, opts)
	if res.TracesUsed != 2 {
		t.Fatalf("TracesUsed = %d, want the plan and verify traces", res.TracesUsed)
	}
	if got != 2*sampleBytes {
		t.Fatalf("Optimize read %d bytes, want exactly the plan and verify traces' samples (2 x %d)", got, sampleBytes)
	}
	if held := store.Bytes(); held != 0 {
		t.Fatalf("caller's store holds %d bytes after Optimize, want 0: a sample filled it", held)
	}
	var examples int64
	if got := served(src, func() { examples = drainExamples(t, res.Final, src, opts, store) }); got != catalogBytes {
		t.Fatalf("drain of the tuned program read %d bytes, want the whole catalog's %d", got, catalogBytes)
	}
	if examples != total {
		t.Fatalf("drain of the tuned program delivered %d examples, want %d", examples, total)
	}
}

// TestOptimizeFromWarmStore runs Optimize with a shared store already warm
// from a full drain of the program: both sampled traces run on private
// stores, so they read exactly their own samples from storage, the warm
// entry keeps its bytes, and a later drain is served from it entirely.
func TestOptimizeFromWarmStore(t *testing.T) {
	src, reg, g, _, sampleBytes := sampleSetup(t)
	store := engine.NewCacheStore()
	opts := Options{Source: src, UDFs: reg, WorkScale: 1, Caches: store, RefineTolerance: -1}
	total := int64(sampleCatalog.NumFiles * sampleCatalog.RecordsPerFile)
	if got := drainExamples(t, g, src, opts, store); got != total {
		t.Fatalf("warm-up drain delivered %d examples, want %d", got, total)
	}
	warm := store.Bytes()

	res, got := optimizeServed(t, g, src, Budget{Cores: 1, MemoryBytes: 64 << 20}, opts)
	if res.TracesUsed != 2 {
		t.Fatalf("TracesUsed = %d, want the plan and verify traces", res.TracesUsed)
	}
	if got != 2*sampleBytes {
		t.Fatalf("Optimize read %d bytes from storage, want exactly the plan and verify traces' samples (2 x %d)", got, sampleBytes)
	}
	if held := store.Bytes(); held != warm {
		t.Fatalf("caller's store holds %d bytes after Optimize, want the warm entry's %d", held, warm)
	}
	var examples int64
	if got := served(src, func() { examples = drainExamples(t, res.Final, src, opts, store) }); got != 0 {
		t.Fatalf("drain of the tuned program read %d bytes from storage, want a warm cache", got)
	}
	if examples != total {
		t.Fatalf("drain of the tuned program delivered %d examples, want %d", examples, total)
	}
}

// TestOptimizeWarmStoreVerifiesFillEpoch runs Optimize twice on one caller
// store. The verify checks a fill-epoch prediction, so the second call's
// verify must be a cold pass over its own sample, not a serve from an
// entry the first call left warm: the second call reads exactly the plan
// trace's sample plus the verify's.
func TestOptimizeWarmStoreVerifiesFillEpoch(t *testing.T) {
	src, reg, g, _, sampleBytes := sampleSetup(t)
	store := engine.NewCacheStore()
	opts := Options{Source: src, UDFs: reg, WorkScale: 1, Caches: store, RefineTolerance: -1}
	budget := Budget{Cores: 1, MemoryBytes: 64 << 20}
	first, _ := optimizeServed(t, g, src, budget, opts)
	second, got := optimizeServed(t, g, src, budget, opts)
	if first.TracesUsed != 2 || second.TracesUsed != 2 {
		t.Fatalf("TracesUsed = %d then %d, want the plan and verify traces", first.TracesUsed, second.TracesUsed)
	}
	if got != 2*sampleBytes {
		t.Fatalf("second Optimize read %d bytes, want a cold verify: the plan and verify traces' samples (2 x %d)", got, sampleBytes)
	}
}
