package host_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"plumber/internal/host"
	"plumber/internal/plan"
	"plumber/internal/simfs"
)

// tracesUsed re-arbitrates without tracing and returns the lifetime trace
// count and the number of admitted tenants.
func tracesUsed(t *testing.T, arb *host.Arbiter) (traces, tenants int) {
	t.Helper()
	dec, err := arb.Arbitrate()
	if err != nil {
		t.Fatal(err)
	}
	return dec.TracesUsed, len(dec.Shares)
}

// TestAddAllRejectsBeforeTracing pins validation order: a bad batch is
// refused before any of its tenants is traced — the valid tenant leading
// the batch never reads a byte, and the incumbent set and trace count stay
// as they were.
func TestAddAllRejectsBeforeTracing(t *testing.T) {
	arb := host.NewArbiter(plan.Budget{Cores: 3})
	if _, err := arb.Add(tenantFor(t, "vision", "incumbent", 1)); err != nil {
		t.Fatal(err)
	}
	fresh := tenantFor(t, "tiny-files", "fresh", 1)
	noGraph := tenantFor(t, "nlp", "no-graph", 1)
	noGraph.Graph = nil
	noSource := tenantFor(t, "nlp", "no-source", 1)
	noSource.FS = nil
	for name, batch := range map[string][]host.Tenant{
		"duplicate within the batch": {fresh, tenantFor(t, "nlp", "fresh", 1)},
		"duplicate of an incumbent":  {fresh, tenantFor(t, "nlp", "incumbent", 1)},
		"more tenants than cores":    {fresh, tenantFor(t, "nlp", "b", 1), tenantFor(t, "skewed", "c", 1)},
		"missing graph":              {fresh, noGraph},
		"missing source":             {fresh, noSource},
		"unnamed":                    {fresh, {Graph: fresh.Graph, FS: fresh.FS}},
	} {
		if _, err := arb.AddAll(batch); err == nil {
			t.Fatalf("%s: batch admitted", name)
		}
		if n := fresh.FS.TotalBytesRead(); n != 0 {
			t.Fatalf("%s: rejected batch traced first (fresh read %d bytes)", name, n)
		}
		if traces, tenants := tracesUsed(t, arb); traces != 1 || tenants != 1 {
			t.Fatalf("%s: %d traces, %d tenants after a rejected batch, want 1 and 1", name, traces, tenants)
		}
	}
	if _, err := arb.AddAll(nil); err == nil {
		t.Fatal("empty batch admitted")
	}
}

// TestAddAllFailedTraceAdmitsNobody: one tenant's planning trace fails on a
// permanently faulted device. AddAll names it (and only it — the healthy
// tenant was merely canceled), admits neither, and leaves no trace
// goroutines behind.
func TestAddAllFailedTraceAdmitsNobody(t *testing.T) {
	arb := host.NewArbiter(plan.Budget{Cores: 4})
	if _, err := arb.Add(tenantFor(t, "nlp", "incumbent", 1)); err != nil {
		t.Fatal(err)
	}
	healthy := tenantFor(t, "vision", "healthy", 1)
	healthy.Spin = true // still tracing when the victim fails, so it is canceled
	victim := tenantFor(t, "tiny-files", "victim", 1)
	victim.FS.SetFaults(&simfs.FaultPlan{Rules: []simfs.FaultRule{
		{Name: "dead-device", ErrorRate: 1, Permanent: true},
	}})

	before := runtime.NumGoroutine()
	_, err := arb.AddAll([]host.Tenant{healthy, victim})
	if err == nil {
		t.Fatal("AddAll succeeded with a failing trace")
	}
	if !strings.Contains(err.Error(), `"victim"`) {
		t.Fatalf("error %q does not name the failing tenant", err)
	}
	if strings.Contains(err.Error(), `"healthy"`) {
		t.Fatalf("error %q blames the healthy tenant", err)
	}
	if traces, tenants := tracesUsed(t, arb); traces != 1 || tenants != 1 {
		t.Fatalf("%d traces, %d tenants after a failed batch, want the incumbent alone", traces, tenants)
	}
	// Pipelines are closed before AddAll returns; allow the runtime a moment
	// to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after the failed AddAll, %d before", after, before)
	}

	// The batch can be retried once the device heals.
	victim.FS.SetFaults(nil)
	dec, err := arb.AddAll([]host.Tenant{healthy, victim})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Shares) != 3 || dec.TracesUsed != 3 {
		t.Fatalf("%d shares, %d traces after the retry, want 3 and 3", len(dec.Shares), dec.TracesUsed)
	}
}

// TestAddAllAfterAddKeepsIncumbents: a batch admitted after an incremental
// Add re-arbitrates every tenant, traces only the newcomers, and keeps
// TracesUsed equal to the tenants ever admitted — evictions included.
func TestAddAllAfterAddKeepsIncumbents(t *testing.T) {
	arb := host.NewArbiter(plan.Budget{Cores: 6, MemoryBytes: 32 << 20})
	first, err := arb.Add(tenantFor(t, "vision", "a", 1))
	if err != nil {
		t.Fatal(err)
	}
	if first.TracesUsed != 1 || first.Shares[0].Budget.Cores != 6 {
		t.Fatalf("lone tenant: %d traces, %d cores, want 1 and the whole budget",
			first.TracesUsed, first.Shares[0].Budget.Cores)
	}
	dec, err := arb.AddAll([]host.Tenant{tenantFor(t, "nlp", "b", 1), tenantFor(t, "tiny-files", "c", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Shares) != 3 || dec.TracesUsed != 3 {
		t.Fatalf("%d shares, %d traces, want 3 and 3", len(dec.Shares), dec.TracesUsed)
	}
	total := 0
	for i, s := range dec.Shares {
		if want := []string{"a", "b", "c"}[i]; s.Tenant != want {
			t.Fatalf("share %d is %q, want %q (registration order)", i, s.Tenant, want)
		}
		total += s.Budget.Cores
	}
	if total > 6 {
		t.Fatalf("shares claim %d cores, budget 6", total)
	}
	// The incumbent's planning observation is the one from its own trace:
	// re-arbitration re-solved its share but did not re-trace it.
	if got, want := dec.Shares[0].ObservedMinibatchesPerSec, first.Shares[0].ObservedMinibatchesPerSec; got != want {
		t.Fatalf("incumbent observed rate moved from %v to %v — it was re-traced", want, got)
	}
	if _, err := arb.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if traces, tenants := tracesUsed(t, arb); traces != 3 || tenants != 2 {
		t.Fatalf("%d traces, %d tenants after an eviction, want 3 and 2", traces, tenants)
	}
}
