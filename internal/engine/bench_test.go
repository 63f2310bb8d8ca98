package engine

import (
	"runtime"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/trace"
	"plumber/internal/udf"
)

func benchSetup(b *testing.B) (*connector.SimFS, *udf.Registry) {
	b.Helper()
	registerOnce.Do(func() {
		if err := data.RegisterCatalog(testCatalog); err != nil {
			panic(err)
		}
	})
	fs := connector.NewMem("bench-mem")
	fs.AddCatalog(testCatalog, 7)
	reg := udf.NewRegistry()
	if err := reg.Register(udf.UDF{Name: "noop", Cost: udf.Cost{SizeFactor: 1}}); err != nil {
		b.Fatal(err)
	}
	// Materialize shards outside the timed region.
	for _, f := range testCatalog.FileNames() {
		r, err := fs.Open(f)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 1<<16)
		for {
			if _, err := r.Read(buf); err != nil {
				break
			}
		}
		r.Close()
	}
	return fs, reg
}

func drainOnce(b *testing.B, fs *connector.SimFS, reg *udf.Registry, g *pipeline.Graph, opts Options) {
	b.Helper()
	opts.FS = fs
	opts.UDFs = reg
	p, err := New(g, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := p.Drain(0); err != nil {
		b.Fatal(err)
	}
	p.Close()
}

// BenchmarkSourceDrain measures the source stage alone: shard reading,
// TFRecord framing, and the chunked handoff to the consumer.
func BenchmarkSourceDrain(b *testing.B) {
	fs, reg := benchSetup(b)
	g, err := pipeline.NewBuilder().Interleave(testCatalog.Name, 2).Build()
	if err != nil {
		b.Fatal(err)
	}
	bytes := int64(testCatalog.NumFiles*testCatalog.RecordsPerFile) * testCatalog.MeanRecordBytes
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainOnce(b, fs, reg, g, Options{})
	}
}

// BenchmarkTracedVsUntraced compares the canonical chain with the collector
// attached (sharded counters, sampled timers) against tracing disabled.
func BenchmarkTracedVsUntraced(b *testing.B) {
	fs, reg := benchSetup(b)
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, 2).
		Map("noop", 2).
		Batch(8).
		Prefetch(4).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	bytes := int64(testCatalog.NumFiles*testCatalog.RecordsPerFile) * testCatalog.MeanRecordBytes
	b.Run("untraced", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			drainOnce(b, fs, reg, g, Options{})
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			col, err := trace.NewCollector(g, trace.Machine{Name: "bench", Cores: runtime.NumCPU()})
			if err != nil {
				b.Fatal(err)
			}
			drainOnce(b, fs, reg, g, Options{Collector: col, SampleEvery: 16})
		}
	})
}

// BenchmarkChunkedVsPerElement compares the chunked/pooled hot path against
// the per-element, unpooled baseline on the canonical chain.
func BenchmarkChunkedVsPerElement(b *testing.B) {
	fs, reg := benchSetup(b)
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, 2).
		Map("noop", 2).
		Batch(8).
		Prefetch(4).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	bytes := int64(testCatalog.NumFiles*testCatalog.RecordsPerFile) * testCatalog.MeanRecordBytes
	b.Run("chunked_pooled", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			drainOnce(b, fs, reg, g, Options{})
		}
	})
	b.Run("per_element", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			drainOnce(b, fs, reg, g, Options{ChunkSize: 1, DisableBufferPool: true})
		}
	})
}

// BenchmarkSpin measures how much wall time spin burns against the modeled
// duration it is asked for. spin checks its deadline once per spinBatch
// iterations, so a short spin overshoots by up to one batch; the
// burned/modeled metric is that overshoot as a ratio (1 is exact). The
// durations are per-element costs of the canonical suite: tiny-files'
// decode (2µs), random-augment's decode of a 4 KiB record (16.4µs) and
// vision's decode of an 8 KiB record (41µs).
func BenchmarkSpin(b *testing.B) {
	for _, d := range []time.Duration{2 * time.Microsecond, 16400 * time.Nanosecond, 41 * time.Microsecond} {
		b.Run(d.String(), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				spin(d)
			}
			b.ReportMetric(float64(time.Since(start))/float64(time.Duration(b.N)*d), "burned/modeled")
		})
	}
}
