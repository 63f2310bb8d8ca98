package engine

import (
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"plumber/internal/connector"
	"plumber/internal/data"
	"plumber/internal/pipeline"
	"plumber/internal/udf"
)

// drainSums drains a fresh pipeline of g on store and returns the element
// count and an order-independent checksum of the delivered payloads.
func drainSums(t *testing.T, g *pipeline.Graph, opts Options) (n int, sum uint64) {
	t.Helper()
	p, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for {
		e, err := p.Next()
		if err == io.EOF {
			return n, sum
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		sum += uint64(crc32.ChecksumIEEE(e.Payload))
		p.Recycle(e)
	}
}

// TestCacheSurvivesMutatingUDF runs interleave → cache → map whose body
// flips each payload's first byte in place, twice on one CacheStore. The
// receiver of an element owns its payload, so the edit must never reach the
// cached bytes: the serving epoch delivers exactly what the filling epoch
// delivered.
func TestCacheSurvivesMutatingUDF(t *testing.T) {
	fs, reg := testSetup(t)
	if err := reg.Register(udf.UDF{
		Name: "flip_first",
		Cost: udf.Cost{SizeFactor: 1},
		Body: func(e data.Element) (data.Element, bool, error) {
			if len(e.Payload) > 0 {
				e.Payload[0] ^= 0xFF
			}
			return e, true, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	g, err := pipeline.NewBuilder().
		Interleave(testCatalog.Name, 2).
		Cache().
		Map("flip_first", 2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, noPool := range []bool{false, true} {
		arenaBase := arenaLive()
		store := NewCacheStore()
		opts := Options{FS: fs, UDFs: reg, Caches: store, DisableBufferPool: noPool}
		fillN, fillSum := drainSums(t, g, opts)
		reads := fs.ReadCalls()
		serveN, serveSum := drainSums(t, g, opts)
		if fs.ReadCalls() != reads {
			t.Fatalf("noPool=%v: second epoch read storage; want it served from the cache", noPool)
		}
		if want := testCatalog.NumFiles * testCatalog.RecordsPerFile; fillN != want || serveN != want {
			t.Fatalf("noPool=%v: epochs delivered %d and %d elements, want %d", noPool, fillN, serveN, want)
		}
		if fillSum != serveSum {
			t.Fatalf("noPool=%v: serving epoch checksum %x != filling epoch %x: a UDF above the cache wrote into the cached bytes",
				noPool, serveSum, fillSum)
		}
		// The fill forwards arena views downstream rather than keeping
		// them, so every block reclaims once the consumer recycled them.
		deadline := time.Now().Add(2 * time.Second)
		for arenaLive() != arenaBase && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if live := arenaLive(); live != arenaBase {
			t.Fatalf("noPool=%v: %d arena blocks still live after both epochs", noPool, live-arenaBase)
		}
	}
}

// footprintCatalog spans several cache slabs with records whose sizes vary,
// so slab packing is measured against a realistic size mix.
var footprintCatalog = data.Catalog{
	Name:                  "engine-cache-footprint",
	NumFiles:              4,
	RecordsPerFile:        400,
	MeanRecordBytes:       3000,
	RecordBytesStddevFrac: 0.4,
	DecodeAmplification:   1,
}

var registerFootprintOnce sync.Once

// TestCacheFootprint fills a cache and checks CacheStore.Bytes: the slabs
// held cost the entry's payload bytes plus packing slack, not a pool size
// class per record; a rewrite that invalidates the entry drops its slabs.
func TestCacheFootprint(t *testing.T) {
	_, reg := testSetup(t)
	registerFootprintOnce.Do(func() {
		if err := data.RegisterCatalog(footprintCatalog); err != nil {
			panic(err)
		}
	})
	fs := connector.NewMem("footprint-mem")
	fs.AddCatalog(footprintCatalog, 3)
	build := func(mapPar int) *pipeline.Graph {
		g, err := pipeline.NewBuilder().
			Interleave(footprintCatalog.Name, 2).
			Map("noop", mapPar).
			Named("footprint_cache").Cache().
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	store := NewCacheStore()
	if got := store.Bytes(); got != 0 {
		t.Fatalf("empty store holds %d bytes", got)
	}
	p, err := New(build(2), Options{FS: fs, UDFs: reg, Caches: store})
	if err != nil {
		t.Fatal(err)
	}
	var payload int64
	for {
		e, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		payload += int64(len(e.Payload))
		p.Recycle(e)
	}
	p.Close()
	held := store.Bytes()
	if limit := payload*105/100 + cacheSlabBytes; held < payload || held > limit {
		t.Fatalf("filled cache holds %d bytes for %d payload bytes, want within [%d, %d]", held, payload, payload, limit)
	}

	// A rewrite below the cache invalidates the entry, dropping its slabs;
	// a partial fill of the new chain holds some, and the restarted fill
	// of the next pipeline drops them again.
	for _, drain := range []int64{1000, 0} {
		p, err = New(build(3), Options{FS: fs, UDFs: reg, Caches: store})
		if err != nil {
			t.Fatal(err)
		}
		if got := store.Bytes(); got != 0 {
			t.Fatalf("invalidated or restarted entry still holds %d bytes", got)
		}
		if _, _, err := p.Drain(drain); err != nil {
			t.Fatal(err)
		}
		p.Close()
		if drain > 0 && store.Bytes() == 0 {
			t.Fatal("partial fill holds no slabs")
		}
	}
}
