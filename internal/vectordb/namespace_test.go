package vectordb

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
)

// nsTestCorpus fills reference, sharded and per-tenant dedicated stores with
// one deterministic corpus spread over the default namespace and two
// tenants.
func nsTestCorpus(t *testing.T, shards int) (*refStore, *Sharded, map[string]*refStore, []Entry) {
	t.Helper()
	const n, dim, clusters = 90, 4, 3
	entries, _ := clusteredCorpus(17, n, dim, clusters)
	tenants := []string{"", "tenant-a", "tenant-b"}
	flat := newRef(dim)
	sh := NewSharded(dim, shards, nil)
	dedicated := map[string]*refStore{"": newRef(dim), "tenant-a": newRef(dim), "tenant-b": newRef(dim)}
	for i, e := range entries {
		e.Namespace = tenants[i%len(tenants)]
		entries[i] = e
		must(t, flat.Add(e))
		must(t, sh.Add(e))
		must(t, dedicated[e.Namespace].Add(e))
	}
	return flat, sh, dedicated, entries
}

// TestNamespaceDefaultView pins the default-scope contract: a query scoped
// to the empty namespace sees exactly the untagged entries, so on a store
// that only holds untagged entries it is indistinguishable from an
// unscoped query.
func TestNamespaceDefaultView(t *testing.T) {
	const dim = 4
	entries, queries := clusteredCorpus(3, 60, dim, 3)
	qt := entries[0].Time
	flat := newRef(dim)
	sh := NewSharded(dim, 5, nil)
	for _, e := range entries {
		must(t, flat.Add(e))
		must(t, sh.Add(e))
	}
	for name, root := range map[string]Index{"flat": flat, "sharded": sh} {
		if got := nsLen(root, ""); got != root.Len() {
			t.Fatalf("%s: default namespace Len %d != root %d", name, got, root.Len())
		}
		for i, q := range queries[:10] {
			want, err := topK(root, q, qt, 5, 0.3)
			must(t, err)
			got, err := topKIn(root, "", q, qt, 5, 0.3)
			must(t, err)
			sameScored(t, fmt.Sprintf("%s default scope query %d", name, i), got, want)
		}
	}

	// On a mixed store the default scope sees exactly the untagged slice.
	flat2, sh2, dedicated, entries2 := nsTestCorpus(t, 5)
	want := dedicated[""].Len()
	for name, root := range map[string]Index{"flat": flat2, "sharded": sh2} {
		if got := nsLen(root, ""); got != want {
			t.Fatalf("%s: mixed-store default namespace Len %d, want %d untagged entries", name, got, want)
		}
		q := entries2[0].Vector
		wantHits, err := topK(dedicated[""], q, qt, 5, 0.3)
		must(t, err)
		got, err := topKIn(root, "", q, qt, 5, 0.3)
		must(t, err)
		sameScored(t, name+" mixed-store default scope", got, wantHits)
	}
}

// TestNamespaceUnknown pins the unknown-tenant contract: a namespace no
// entry carries serves zero hits without error — and reads never create
// tenant state: a thousand distinct unknown-namespace searches, with
// adaptive serving on (which would give every new namespace a controller),
// leave NamespaceStats and the persisted serving state unchanged.
func TestNamespaceUnknown(t *testing.T) {
	flat, sh, _, entries := nsTestCorpus(t, 5)
	must(t, sh.TrainIVF(0))
	if _, err := sh.EnableAdaptive(AutoConfig{RecallTarget: 0.9, ShadowRate: 1}); err != nil {
		t.Fatal(err)
	}
	qt := entries[0].Time
	q := entries[0].Vector
	for name, root := range map[string]Index{"flat": flat, "sharded": sh} {
		if got := nsLen(root, "nobody"); got != 0 {
			t.Fatalf("%s: unknown namespace Len = %d, want 0", name, got)
		}
		hits, err := topKIn(root, "nobody", q, qt, 5, 0.3)
		if err != nil {
			t.Fatalf("%s: unknown namespace TopK: %v", name, err)
		}
		if len(hits) != 0 {
			t.Fatalf("%s: unknown namespace served %d hits, want 0", name, len(hits))
		}
		hits, err = topKDiverseIn(root, "nobody", q, qt, 5, 0.3)
		if err != nil {
			t.Fatalf("%s: unknown namespace TopKDiverse: %v", name, err)
		}
		if len(hits) != 0 {
			t.Fatalf("%s: unknown namespace served %d diverse hits, want 0", name, len(hits))
		}
	}

	stats, state := sh.NamespaceStats(), sh.servingState()
	for i := 0; i < 1000; i++ {
		batch := []Query{
			{Vector: q, Time: qt, K: 5, Alpha: 0.3, Namespace: fmt.Sprintf("ghost-%04d", i), Scoped: true},
			{Vector: q, Time: qt, K: 5, Alpha: 0.3, Diverse: true, Namespace: fmt.Sprintf("ghost-%04d", i), Scoped: true},
		}
		out, err := sh.Search(batch)
		must(t, err)
		if len(out[0]) != 0 || len(out[1]) != 0 {
			t.Fatalf("unknown namespace ghost-%04d served hits", i)
		}
	}
	sh.AdaptiveTuner().Quiesce()
	if got := sh.NamespaceStats(); !reflect.DeepEqual(got, stats) {
		t.Fatalf("unknown-namespace reads changed NamespaceStats:\n got %+v\nwant %+v", got, stats)
	}
	if got := sh.servingState(); !reflect.DeepEqual(got, state) {
		t.Fatalf("unknown-namespace reads changed the serving state:\n got %+v\nwant %+v", got, state)
	}
}

// TestNamespaceViewEquivalence holds each tenant scope — on the store at
// every shard count and on the reference — bit-identical to a dedicated
// reference store of just that tenant's entries.
func TestNamespaceViewEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 7} {
		flat, sh, dedicated, entries := nsTestCorpus(t, shards)
		qt := entries[0].Time
		for ns, d := range dedicated {
			for i := 0; i < 8; i++ {
				q := entries[i*7].Vector
				want, err := topK(d, q, qt, 5, 0.3)
				must(t, err)
				wantD, err := topKDiverse(d, q, qt, 5, 0.3)
				must(t, err)
				for name, idx := range map[string]Index{"flat": flat, "sharded": sh} {
					got, err := topKIn(idx, ns, q, qt, 5, 0.3)
					must(t, err)
					sameScored(t, fmt.Sprintf("shards=%d %s ns=%q query %d", shards, name, ns, i), got, want)
					gotD, err := topKDiverseIn(idx, ns, q, qt, 5, 0.3)
					must(t, err)
					sameScored(t, fmt.Sprintf("shards=%d %s ns=%q diverse query %d", shards, name, ns, i), gotD, wantD)
				}
			}
			if got := nsLen(sh, ns); got != d.Len() {
				t.Fatalf("shards=%d ns=%q Len %d != dedicated %d", shards, ns, got, d.Len())
			}
		}
	}
}

// TestNamespaceConcurrentHammer races cross-namespace writers against
// scoped and unscoped readers on one sharded pool; under `go test -race`
// this proves the namespace bookkeeping (per-tenant counts, serving state
// creation, scoped scans) shares the store's locking discipline. Final
// per-namespace counts must reconcile.
func TestNamespaceConcurrentHammer(t *testing.T) {
	const writers, readers, perG = 4, 4, 120
	sh := NewSharded(4, 7, nil)
	at := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	tenants := []string{"", "tenant-a", "tenant-b", "tenant-c"}
	for i := 0; i < 8; i++ {
		must(t, sh.Add(Entry{
			ID:       fmt.Sprintf("SEED-%d", i),
			Vector:   []float64{float64(i), 1, 2, 3},
			Category: incident.Category(fmt.Sprintf("c%d", i%3)),
			Time:     at,
		}))
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := sh.Add(Entry{
					ID:        fmt.Sprintf("W%d-%04d", w, i),
					Vector:    []float64{float64(i % 7), float64(w), 0, 1},
					Category:  incident.Category(fmt.Sprintf("c%d", i%5)),
					Time:      at.AddDate(0, 0, i%30),
					Namespace: tenants[w%len(tenants)],
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := []float64{float64(r), 1, 1, 1}
			ns := tenants[(r+1)%len(tenants)]
			for i := 0; i < perG; i++ {
				if _, err := topKIn(sh, ns, q, at.AddDate(0, 0, i%30), 5, 0.3); err != nil {
					t.Error(err)
					return
				}
				if _, err := topK(sh, q, at, 3, 0.3); err != nil {
					t.Error(err)
					return
				}
				if i%20 == 0 {
					sh.NamespaceStats()
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Reconcile: every writer's namespace holds seed + its writes.
	counts := map[string]int{"": 8}
	for w := 0; w < writers; w++ {
		counts[tenants[w%len(tenants)]] += perG
	}
	total := 0
	for ns, want := range counts {
		total += want
		if got := nsLen(sh, ns); got != want {
			t.Fatalf("namespace %q Len = %d, want %d", ns, got, want)
		}
	}
	if sh.Len() != total {
		t.Fatalf("root Len = %d, want %d", sh.Len(), total)
	}
}

// TestNamespacePersistence round-trips a multi-tenant sharded store
// through Save/Load: per-namespace entry counts, probe budgets, escalated
// overfetch and controller aggregates must all survive, and a loaded
// store must serve every namespace bit-identically to the original.
func TestNamespacePersistence(t *testing.T) {
	_, sh, dedicated, entries := nsTestCorpus(t, 5)
	qt := entries[0].Time
	must(t, sh.TrainIVF(0))
	must(t, sh.SetProbes(2))
	must(t, sh.SetNamespaceProbes("tenant-a", 3))

	var buf bytes.Buffer
	must(t, sh.Save(&buf))

	// Load into a store with stale namespace state: counts must be rebuilt
	// from the snapshot, not accumulated on top of the old population.
	loaded := NewSharded(4, 5, nil)
	stale := entries[0]
	stale.ID, stale.Namespace = "STALE-0", "tenant-stale"
	must(t, loaded.Add(stale))
	must(t, loaded.Load(bytes.NewReader(buf.Bytes())))

	if got, want := loaded.Len(), sh.Len(); got != want {
		t.Fatalf("loaded Len = %d, want %d", got, want)
	}
	if got := nsLen(loaded, "tenant-stale"); got != 0 {
		t.Fatalf("stale namespace survived Load with Len %d, want 0", got)
	}
	for ns, d := range dedicated {
		if got := nsLen(loaded, ns); got != d.Len() {
			t.Fatalf("loaded namespace %q Len = %d, want %d", ns, got, d.Len())
		}
	}
	if got := loaded.Probes(); got != 2 {
		t.Fatalf("loaded root probe budget = %d, want 2", got)
	}
	if got := loaded.NamespaceProbes("tenant-a"); got != 3 {
		t.Fatalf("loaded tenant-a probe budget = %d, want 3", got)
	}
	if got := loaded.NamespaceProbes("tenant-b"); got != 0 {
		t.Fatalf("loaded tenant-b probe budget = %d, want 0 (exact)", got)
	}
	// Every namespace serves bit-identically to the original store's.
	for _, ns := range []string{"", "tenant-a", "tenant-b"} {
		for i := 0; i < 6; i++ {
			q := entries[i*11].Vector
			want, err := topKIn(sh, ns, q, qt, 5, 0.3)
			must(t, err)
			got, err := topKIn(loaded, ns, q, qt, 5, 0.3)
			must(t, err)
			sameScored(t, fmt.Sprintf("loaded ns=%q query %d", ns, i), got, want)
		}
	}
}
