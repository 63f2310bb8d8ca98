package host

import (
	"reflect"
	"testing"

	"plumber/internal/connector"
	"plumber/internal/plan"
	"plumber/internal/scenario"
	"plumber/internal/trace"
)

// buildTenant builds the named quick-suite scenario as a tenant reading
// through src (the workload's own filesystem when src is nil), and returns
// the workload so callers can stage its catalog elsewhere.
func buildTenant(t *testing.T, specName, name string, src connector.Connector) (Tenant, *scenario.Workload) {
	t.Helper()
	for _, s := range scenario.Suite(true) {
		if s.Name != specName {
			continue
		}
		w, err := scenario.Build(s)
		if err != nil {
			t.Fatal(err)
		}
		if src == nil {
			src = w.Source
		}
		return Tenant{
			Name: name, Weight: 1, Graph: w.Graph, Source: src, UDFs: w.Registry,
			Seed: s.Seed, WorkScale: 1,
		}, w
	}
	t.Fatalf("no scenario %q", specName)
	return Tenant{}, nil
}

// planningSnapshots admits ts with one AddAll on a fresh arbiter and
// returns every tenant's planning snapshot by name.
func planningSnapshots(t *testing.T, cores int, ts ...Tenant) map[string]*trace.Snapshot {
	t.Helper()
	arb := NewArbiter(plan.Budget{Cores: cores})
	if _, err := arb.AddAll(ts); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*trace.Snapshot, len(ts))
	for _, st := range arb.tenants {
		out[st.Name] = st.analysis.Snapshot
	}
	return out
}

// assertSameReads checks that a tenant's snapshot from a shared trace
// counted exactly the source bytes and files of its lone trace.
func assertSameReads(t *testing.T, name string, shared, lone *trace.Snapshot) {
	t.Helper()
	for node, ls := range lone.Nodes {
		if got := shared.Nodes[node].BytesRead; got != ls.BytesRead {
			t.Fatalf("tenant %q node %q read %d bytes traced alongside another tenant, %d alone",
				name, node, got, ls.BytesRead)
		}
	}
	if !reflect.DeepEqual(shared.Files, lone.Files) {
		t.Fatalf("tenant %q file map differs from its lone trace: %d files vs %d",
			name, len(shared.Files), len(lone.Files))
	}
}

// TestConcurrentTraceSharedConnector traces two tenants at once through
// one simfs connector serving both catalogs. Each collector must count
// only its own tenant's reads: per-node BytesRead and the file map equal
// those of a lone trace of the same tenant. Run under -race.
func TestConcurrentTraceSharedConnector(t *testing.T) {
	vision, vw := buildTenant(t, "vision", "vision", nil)
	tiny, tw := buildTenant(t, "tiny-files", "tiny", vision.Source)
	vw.FS.AddCatalog(tw.Catalog, tw.Spec.Seed)

	if waves := traceWaves([]Tenant{vision, tiny}); len(waves) != 1 {
		t.Fatalf("distinct catalogs on one connector traced in %d waves, want 1", len(waves))
	}
	together := planningSnapshots(t, 2, vision, tiny)
	for _, tn := range []Tenant{vision, tiny} {
		lone := planningSnapshots(t, 2, tn)[tn.Name]
		got := together[tn.Name]
		if got.Machine.Cores != 1 || lone.Machine.Cores != 2 {
			t.Fatalf("tenant %q traced at %d cores together, %d alone; want its share 1 and the budget 2",
				tn.Name, got.Machine.Cores, lone.Machine.Cores)
		}
		if got.Tenant != tn.Name {
			t.Fatalf("snapshot labeled %q, want %q", got.Tenant, tn.Name)
		}
		assertSameReads(t, tn.Name, got, lone)
	}
}

// TestConcurrentTraceSameCatalogWaves: two tenants reading the same
// catalog through the same store cannot be separated by path, so they
// trace in separate waves (each on the whole budget) and still count
// exactly their own reads; a third tenant on its own store joins the first
// wave.
func TestConcurrentTraceSameCatalogWaves(t *testing.T) {
	a, _ := buildTenant(t, "vision", "a", nil)
	b := a
	b.Name = "b"
	b.Source = connector.FromSimFS(a.Source.(*connector.SimFS).FS) // another adapter, same filesystem
	c, _ := buildTenant(t, "vision", "c", nil)                     // same catalog, its own filesystem

	ts := []Tenant{a, b, c}
	if waves := traceWaves(ts); !reflect.DeepEqual(waves, [][]int{{0, 2}, {1}}) {
		t.Fatalf("waves = %v, want [[0 2] [1]]", waves)
	}
	snaps := planningSnapshots(t, 4, ts...)
	lone := planningSnapshots(t, 4, a)["a"]
	for _, name := range []string{"a", "b", "c"} {
		assertSameReads(t, name, snaps[name], lone)
	}
	if got := snaps["b"].Machine.Cores; got != 4 {
		t.Fatalf("second-wave tenant traced at %d cores, want the whole budget 4", got)
	}
	if got := snaps["a"].Machine.Cores; got != 2 {
		t.Fatalf("first-wave tenant traced at %d cores, want half the budget", got)
	}
}
