package tracerun

import (
	"context"
	"math"
	"strings"
	"testing"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/engine"
	"plumber/internal/ops"
	"plumber/internal/pipeline"
	"plumber/internal/plan"
	"plumber/internal/rewrite"
	"plumber/internal/scenario"
	"plumber/internal/simfs"
	"plumber/internal/trace"
)

// analyzeWorkload traces one pass of the scenario's program with modeled
// (not spun) CPU, so per-element costs are exact and runs comparable.
func analyzeWorkload(t *testing.T, w *scenario.Workload, sample bool, maxMinibatches int64) (*trace.Snapshot, *ops.Analysis) {
	t.Helper()
	snap, err := Run(context.Background(), w.Graph, engine.Options{
		FS: w.Source, UDFs: w.Registry, Seed: w.Spec.Seed, WorkScale: 1, FileSample: sample,
	}, trace.Machine{Name: "test", Cores: 2}, maxMinibatches)
	if err != nil {
		t.Fatal(err)
	}
	an, err := ops.Analyze(snap, w.Registry)
	if err != nil {
		t.Fatal(err)
	}
	return snap, an
}

func buildWorkload(t *testing.T, spec scenario.Spec) *scenario.Workload {
	t.Helper()
	w, err := scenario.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if w.Cleanup != nil {
		t.Cleanup(w.Cleanup)
	}
	return w
}

// relErr is |got-want|/want, 0 when both are the same infinity.
func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}

func suiteSpec(t *testing.T, name string) scenario.Spec {
	t.Helper()
	for _, s := range scenario.Suite(false) {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("scenario %q not in the suite", name)
	return scenario.Spec{}
}

// TestSampleMatchesFullPass checks the planning trace against a full pass
// on every workload of the canonical suite: it reads exactly the first
// half of the files, and its rescaled analysis reproduces the full pass's
// per-node visit ratios within 2% and, on catalogs of uniformly sized
// files, the local rates within 2% and the dataset size within 5%. The
// heavy-tailed skewed catalog's rate and size errors are reported, not
// bounded: half its files are not a representative sample of its bytes,
// and its decode cost is per byte.
func TestSampleMatchesFullPass(t *testing.T) {
	for _, spec := range scenario.Suite(false) {
		t.Run(spec.Name, func(t *testing.T) {
			w := buildWorkload(t, spec)
			_, full := analyzeWorkload(t, w, false, 0)
			snap, sampled := analyzeWorkload(t, w, true, 0)

			files := w.Catalog.FileNames()
			want := files[:(len(files)+1)/2]
			if len(snap.Files) != len(want) {
				t.Fatalf("sample observed %d files, want %d", len(snap.Files), len(want))
			}
			for _, f := range want {
				if _, ok := snap.Files[f]; !ok {
					t.Fatalf("sample missed %s; observed %v", f, snap.SortedFileNames())
				}
			}
			if snap.TotalFiles != w.Catalog.NumFiles {
				t.Fatalf("TotalFiles = %d, want the catalog's %d", snap.TotalFiles, w.Catalog.NumFiles)
			}
			checkSampleMatches(t, full, sampled, spec.FileSizeSkew == 0)
		})
	}
}

// checkSampleMatches compares the analysis of a pass over the file sample
// with a full pass's: every node's visit ratio within 2% and, on catalogs
// of uniformly sized files, every local rate within 2% and the dataset
// size and each cache node's materialized bytes within 5%. Rate and size
// errors are logged either way.
func checkSampleMatches(t *testing.T, full, sampled *ops.Analysis, uniform bool) {
	t.Helper()
	for i, fn := range full.Nodes {
		sn := sampled.Nodes[i]
		if e := relErr(sn.VisitRatio, fn.VisitRatio); e > 0.02 {
			t.Errorf("%s VisitRatio %.4f vs full %.4f (%.1f%%)", fn.Name, sn.VisitRatio, fn.VisitRatio, 100*e)
		}
		e := relErr(sn.LocalRate, fn.LocalRate)
		t.Logf("%s LocalRate sampled %.1f vs full %.1f: %.1f%% error", fn.Name, sn.LocalRate, fn.LocalRate, 100*e)
		if uniform && e > 0.02 {
			t.Errorf("%s LocalRate error %.1f%% exceeds 2%%", fn.Name, 100*e)
		}
		if fn.Kind == pipeline.KindCache {
			e := relErr(sn.MaterializedBytes, fn.MaterializedBytes)
			t.Logf("%s MaterializedBytes sampled %.0f vs full %.0f: %.1f%% error", fn.Name, sn.MaterializedBytes, fn.MaterializedBytes, 100*e)
			if uniform && e > 0.05 {
				t.Errorf("%s MaterializedBytes error %.1f%% exceeds 5%%", fn.Name, 100*e)
			}
		}
	}
	e := relErr(sampled.DatasetBytes, full.DatasetBytes)
	t.Logf("DatasetBytes sampled %.0f vs full %.0f: %.1f%% error", sampled.DatasetBytes, full.DatasetBytes, 100*e)
	if uniform && e > 0.05 {
		t.Errorf("DatasetBytes error %.1f%% exceeds 5%% on a uniform-size catalog", 100*e)
	}
}

// TestBoundedTraceVisitRatios stops a trace a quarter of the way through
// the pass, with elements still in flight between stages, and checks that
// every node's visit ratio, rate and source I/O cost match the full pass
// within 1%.
func TestBoundedTraceVisitRatios(t *testing.T) {
	spec := suiteSpec(t, "random-augment")
	w := buildWorkload(t, spec)
	_, full := analyzeWorkload(t, w, false, 0)
	quarter := int64(spec.Files*spec.RecordsPerFile/spec.BatchSize) / 4
	_, bounded := analyzeWorkload(t, w, false, quarter)
	if bounded.Nodes[len(bounded.Nodes)-1].Completions != quarter {
		t.Fatalf("bounded trace completed %d minibatches, want %d", bounded.Nodes[len(bounded.Nodes)-1].Completions, quarter)
	}
	for i, fn := range full.Nodes {
		bn := bounded.Nodes[i]
		if e := relErr(bn.VisitRatio, fn.VisitRatio); e > 0.01 {
			t.Errorf("%s VisitRatio %.3f at a quarter pass vs %.3f full (%.1f%%)", fn.Name, bn.VisitRatio, fn.VisitRatio, 100*e)
		}
		if e := relErr(bn.Rate, fn.Rate); e > 0.01 {
			t.Errorf("%s Rate %.2f at a quarter pass vs %.2f full (%.1f%%)", fn.Name, bn.Rate, fn.Rate, 100*e)
		}
		if e := relErr(bn.IOBytesPerMinibatch, fn.IOBytesPerMinibatch); e > 0.01 {
			t.Errorf("%s IOBytesPerMinibatch %.0f at a quarter pass vs %.0f full (%.1f%%)", fn.Name, bn.IOBytesPerMinibatch, fn.IOBytesPerMinibatch, 100*e)
		}
	}
}

// TestFilesCountOnlyEOF stops a trace part-way through a file of a catalog
// whose files are all the same size: only files read to their end may
// enter the file map, each with its whole framed size, so the §A rescale
// recovers the catalog's size and cardinality exactly. Counting the
// half-read file would pass it off as a small whole file.
func TestFilesCountOnlyEOF(t *testing.T) {
	cat := data.Catalog{
		Name:                "tracerun-uniform",
		NumFiles:            8,
		RecordsPerFile:      256,
		MeanRecordBytes:     1 << 10,
		DecodeAmplification: 1,
	}
	if err := data.RegisterCatalog(cat); err != nil {
		t.Fatal(err)
	}
	fs := simfs.New(simfs.Device{Name: "uniform-mem"}, false)
	fs.AddCatalog(cat, 3)
	const batch = 16
	g := pipeline.NewBuilder().Interleave(cat.Name, 1).Batch(batch).MustBuild()
	specs := cat.GenerateFileSpecs(3)
	// Two and a half files' worth of minibatches: the reader stops inside
	// the third file (or, reading ahead, a later one).
	maxMB := int64(5 * cat.RecordsPerFile / 2 / batch)
	snap, err := Run(context.Background(), g, engine.Options{FS: connector.FromSimFS(fs)},
		trace.Machine{Name: "test", Cores: 1}, maxMB)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(snap.Files); n < 2 || n >= cat.NumFiles {
		t.Fatalf("observed %d whole files, want at least 2 and fewer than %d", n, cat.NumFiles)
	}
	for _, s := range specs {
		if b, ok := snap.Files[s.Name]; ok && (b != s.TotalBytes || snap.FileRecords[s.Name] != int64(s.Records)) {
			t.Fatalf("%s counted %d bytes / %d records, want the whole file's %d / %d",
				s.Name, b, snap.FileRecords[s.Name], s.TotalBytes, s.Records)
		}
	}
	an, err := ops.Analyze(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(cat.NumFiles) * float64(specs[0].TotalBytes); an.DatasetBytes != want {
		t.Fatalf("DatasetBytes = %.0f, want %.0f (%d whole files of %d bytes)", an.DatasetBytes, want, cat.NumFiles, specs[0].TotalBytes)
	}
	if want := float64(cat.TotalExamples()); an.Nodes[0].Cardinality != want {
		t.Fatalf("source cardinality = %.1f, want %.0f", an.Nodes[0].Cardinality, want)
	}
}

// TestSampleConcatPerSource checks the file sample on a DAG: each source
// of a Concat reads the first ⌈k/2⌉ of its own k files, and TotalFiles
// sums the full catalogs.
func TestSampleConcatPerSource(t *testing.T) {
	w := buildWorkload(t, scenario.Spec{
		Name: "tracerun-concat", Shape: "concat",
		Files: 5, RecordsPerFile: 64, MeanRecordBytes: 512,
		AuxFiles: 3, AuxRecordsPerFile: 64,
		DecodeCPUPerElement: 1e-6, BatchSize: 16,
	})
	snap, _ := analyzeWorkload(t, w, true, 0)
	for _, cat := range []data.Catalog{w.Catalog, w.AuxCatalog} {
		files := cat.FileNames()
		want := files[:(len(files)+1)/2]
		got := 0
		for p := range snap.Files {
			if data.CatalogOfPath(p) == cat.Name {
				got++
			}
		}
		if got != len(want) {
			t.Fatalf("%s: sample read %d files, want %d", cat.Name, got, len(want))
		}
		for _, f := range want {
			if _, ok := snap.Files[f]; !ok {
				t.Fatalf("%s: sample missed %s", cat.Name, f)
			}
		}
	}
	if want := w.Catalog.NumFiles + w.AuxCatalog.NumFiles; snap.TotalFiles != want {
		t.Fatalf("TotalFiles = %d, want %d (both full catalogs)", snap.TotalFiles, want)
	}
}

// TestSampleFits pins which planning traces sample: a uniform-size catalog
// whose first half of files holds at least minSampleMinibatches root
// minibatches. Every workload of the canonical suite, quick or full size,
// stays a full pass; the benchmark-sized tenants sample.
func TestSampleFits(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		files, records, batch int
		skew                  float64
		want                  bool
	}{
		{"quick random-augment", 6, 64, 16, 0, false},       // 12 sampled minibatches
		{"quick tiny-files", 64, 4, 32, 0, false},           // 4
		{"nlp", 4, 2048, 64, 0, false},                      // 64
		{"cold-storage", 8, 256, 16, 0, false},              // 64
		{"skewed", 16, 256, 16, 0.9, false},                 // 128, heavy-tailed
		{"long skewed", 16, 1024, 16, 0.9, false},           // 512, heavy-tailed
		{"random-augment x4 records", 6, 1024, 16, 0, true}, // 192
		{"tiny-files x48 files", 12288, 4, 32, 0, true},     // 768
		{"odd file count", 5, 704, 16, 0, true},             // ⌈5/2⌉ = 3 files: 132
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat := data.Catalog{
				Name: "tracerun-fits-" + strings.ReplaceAll(tc.name, " ", "-"), NumFiles: tc.files,
				RecordsPerFile: tc.records, MeanRecordBytes: 256, FileSizeSkew: tc.skew,
			}
			if err := data.RegisterCatalog(cat); err != nil {
				t.Fatal(err)
			}
			g := pipeline.NewBuilder().Interleave(cat.Name, 2).Batch(tc.batch).MustBuild()
			if got := SampleFits(g); got != tc.want {
				t.Fatalf("SampleFits = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCappedInterleaveKeepsCardinality caps a trace of a parallel
// interleave inside its first files, before any reader reaches an EOF:
// the partial reads must stand in for the file sample, so the source
// cardinality, the dataset size and a cache candidate all survive.
func TestCappedInterleaveKeepsCardinality(t *testing.T) {
	cat := data.Catalog{
		Name:                "tracerun-capped",
		NumFiles:            8,
		RecordsPerFile:      2048,
		MeanRecordBytes:     256,
		DecodeAmplification: 1,
	}
	if err := data.RegisterCatalog(cat); err != nil {
		t.Fatal(err)
	}
	fs := simfs.New(simfs.Device{Name: "capped-mem"}, false)
	fs.AddCatalog(cat, 5)
	g := pipeline.NewBuilder().Interleave(cat.Name, 4).Batch(16).MustBuild()
	snap, err := Run(context.Background(), g, engine.Options{FS: connector.FromSimFS(fs)},
		trace.Machine{Name: "test", Cores: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	an, err := ops.Analyze(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := an.Nodes[0]
	if !(an.DatasetBytes > 0) || !(src.Cardinality > 0) || !(src.MaterializedBytes > 0) {
		t.Fatalf("capped trace: DatasetBytes %.0f, source cardinality %.0f, materialized %.0f; want all non-zero",
			an.DatasetBytes, src.Cardinality, src.MaterializedBytes)
	}
	if _, _, ok, err := (rewrite.InsertCacheAtBestNode{}).Apply(an, rewrite.Budget{Cores: 2, MemoryBytes: 1 << 30}); err != nil || !ok {
		t.Fatalf("no cache candidate survived the capped trace (ok=%v, err=%v)", ok, err)
	}
}

// TestSampleMatchesFullPassPlanned repeats TestSampleMatchesFullPass on
// planned programs, the shape plan-first Optimize's verify trace runs:
// every uniform-size workload of the canonical suite, and random-augment
// at four times the records per file, is traced, solved and rewritten
// (plan.Solve, then rewrite.ApplyPlan). The planned program's trace over
// the file sample must reproduce a full pass's visit ratios and local
// rates within 2%, and its dataset size and the planned cache's
// materialized bytes within 5%. Every planned program must hold a cache;
// across the workloads they must also hold a root prefetch and raised
// parallelism.
func TestSampleMatchesFullPassPlanned(t *testing.T) {
	var specs []scenario.Spec
	for _, s := range scenario.Suite(false) {
		if s.FileSizeSkew == 0 {
			specs = append(specs, s)
		}
	}
	x4 := suiteSpec(t, "random-augment")
	x4.Name += "-x4"
	x4.RecordsPerFile *= 4
	specs = append(specs, x4)
	var prefetched, raised int
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			w := buildWorkload(t, spec)
			_, an := analyzeWorkload(t, w, false, 0)
			p, err := plan.Solve(an, plan.Budget{Cores: 4, MemoryBytes: 64 << 20, DiskBandwidth: spec.Device.TotalBandwidth})
			if err != nil {
				t.Fatal(err)
			}
			planned, _, err := rewrite.ApplyPlan(w.Graph, p)
			if err != nil {
				t.Fatal(err)
			}
			if p.CacheAbove == "" {
				t.Fatal("plan placed no cache")
			}
			for _, n := range planned.Nodes {
				if n.Kind == pipeline.KindPrefetch && n.Name == planned.Output {
					prefetched++
				}
				if old, err := w.Graph.Node(n.Name); err == nil && n.EffectiveParallelism() > old.EffectiveParallelism() {
					raised++
				}
			}
			pw := *w
			pw.Graph = planned
			_, full := analyzeWorkload(t, &pw, false, 0)
			_, sampled := analyzeWorkload(t, &pw, true, 0)
			checkSampleMatches(t, full, sampled, true)
		})
	}
	t.Logf("planned programs: %d root prefetches, %d raised knobs", prefetched, raised)
	if prefetched == 0 || raised == 0 {
		t.Fatalf("planned programs hold %d root prefetches and %d raised knobs; want each at least once", prefetched, raised)
	}
}
