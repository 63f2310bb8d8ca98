package main

import (
	"testing"

	"plumber/internal/connector"
)

// TestTimedConnectorIsTransparent drains the ingest program once through
// the workload's connector and once through the timing wrapper: both must
// deliver the same examples and bytes, and the wrapper must count exactly
// the bytes and opens the backend served.
func TestTimedConnectorIsTransparent(t *testing.T) {
	w := &ingest{}
	if err := w.setup(7); err != nil {
		t.Fatal(err)
	}
	tn := w.t
	mem := tn.src.(*connector.SimFS)
	plain, err := drain(tn.program, tn.engineOptions(tn.src), 0, false, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	tc := newTimedConnector(tn.src, rec)
	servedBefore := mem.TotalBytesRead()
	wrapped, err := drain(tn.program, tn.engineOptions(tc), 0, false, rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	served := mem.TotalBytesRead() - servedBefore

	if plain.examples != wrapped.examples || plain.bytes != wrapped.bytes {
		t.Fatalf("wrapped drain delivered %d examples / %d bytes, unwrapped %d / %d",
			wrapped.examples, wrapped.bytes, plain.examples, plain.bytes)
	}
	if want := ingestPasses * tn.passExamples; plain.examples != want {
		t.Fatalf("drain delivered %d examples, want %d", plain.examples, want)
	}
	if want := ingestPasses * tn.passBytes; plain.bytes != want {
		t.Fatalf("drain delivered %d bytes, want %d", plain.bytes, want)
	}
	if got := tc.readBytes.Load(); got != served {
		t.Fatalf("wrapper counted %d bytes read, backend served %d", got, served)
	}
	if got, want := len(rec.durations("connector.open")), ingestPasses*len(tn.src.List()); got != want {
		t.Fatalf("wrapper recorded %d opens, want %d", got, want)
	}
}
