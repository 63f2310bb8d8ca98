package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"plumber/internal/connector"
)

// timedConnector wraps a workload's connector for the traced run: it times
// every Open (also recorded as a span) and every Reader.Read, and counts the
// bytes served, delegating everything else unchanged.
type timedConnector struct {
	connector.Connector
	rec *recorder

	openNanos atomic.Int64
	readNanos atomic.Int64
	readBytes atomic.Int64
}

func newTimedConnector(inner connector.Connector, rec *recorder) *timedConnector {
	return &timedConnector{Connector: inner, rec: rec}
}

// Open implements connector.Connector.
func (c *timedConnector) Open(path string) (connector.Reader, error) {
	start := time.Now()
	r, err := c.Connector.Open(path)
	d := time.Since(start)
	c.openNanos.Add(int64(d))
	c.rec.add(0, "connector.open", start, d, 0)
	if err != nil {
		return nil, err
	}
	return &timedReader{Reader: r, c: c}, nil
}

// timedReader times Read on one opened shard.
type timedReader struct {
	connector.Reader
	c *timedConnector
}

func (r *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.Reader.Read(p)
	r.c.readNanos.Add(int64(time.Since(start)))
	r.c.readBytes.Add(int64(n))
	return n, err
}

// SkipTo keeps the wrapped backend's forward-seek fast path reachable, so
// wrapping never changes which bytes the engine reads.
func (r *timedReader) SkipTo(off int64) error {
	return connector.SkipTo(r.Reader, off)
}

// span is one timed call: its name, start and end as offsets from the
// recorder's origin, and the id of the span that caused it (0 for none).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps the traced run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced rounds pass nil.
type recorder struct {
	origin time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id, for children to name as their
// parent, and the function that closes it.
func (r *recorder) begin(name string, parent int64) (id int64, end func()) {
	if r == nil {
		return 0, func() {}
	}
	id = r.nextID.Add(1)
	start := time.Now()
	return id, func() { r.add(id, name, start, time.Since(start), parent) }
}

// add records a finished span.
func (r *recorder) add(id int64, name string, start time.Time, d time.Duration, parent int64) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.nextID.Add(1)
	}
	s := start.Sub(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, StartNs: s, EndNs: s + d.Nanoseconds()})
	r.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}

// write stores the spans as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}
