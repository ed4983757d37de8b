package vectordb

import (
	"fmt"
	"math"
	"testing"
)

// FuzzProbeEquivalence cross-checks probe-limited serving — including the
// two-stage quantized scan — against oracles on fuzzed (corpus seed,
// shard count, probe budget, overfetch, query) tuples:
//
//   - when the store reports the exact fallback (probes = 0, budget
//     covering every populated partition, ...), results must be
//     bit-identical to the reference store — quantization enabled or not,
//     the int8 stage must never leak into exact fan-out;
//   - when probe mode engages and k×overfetch covers every probed
//     partition, the quantized two-stage results must be bit-identical to
//     a reference store built from exactly the probed partitions' entries —
//     candidate collection plus exact re-rank degenerates to exact search
//     restricted to the selection;
//   - when the candidate budget does NOT cover the probed partitions, the
//     result is approximate but must stay sane: correct length, every hit
//     from a probed partition with its exact (distance, similarity)
//     re-ranked scores, in the standard retrieval order — and never a
//     panic at any dim/overfetch/corpus shape;
//   - at every fuzzed shape, Search over a batch of fuzzed size built
//     around the query (perturbed variants, mixed k/alpha/diverse, some
//     members namespace-scoped) must return, per member, exactly the
//     one-query Search result — the batch bit-identity contract under all
//     of the above modes at once;
//   - the corpus is spread across namespaces, and each non-default
//     namespace scope (on the store and on the reference, fresh tenants
//     serving exact) must be bit-identical to a dedicated reference store
//     holding only that tenant's entries — the namespace contract.
//
// The seeds double as regression tests on every plain `go test` run; CI
// additionally runs a short coverage-guided session (-fuzz).
func FuzzProbeEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(1), uint8(200), uint8(3), 1.0, 2.0, 3.0, 4.0)
	f.Add(int64(99), uint8(8), uint8(2), uint8(0), uint8(0), 10.0, 0.0, -3.0, 7.5)
	f.Add(int64(7), uint8(2), uint8(0), uint8(3), uint8(7), 0.0, 0.0, 0.0, 0.0)
	f.Add(int64(123), uint8(6), uint8(5), uint8(1), uint8(12), -2.0, 19.0, 4.0, 11.0)
	f.Fuzz(func(t *testing.T, seed int64, shardsB, probesB, overB, batchB uint8, qa, qb, qc, qd float64) {
		const n, dim, clusters, k = 60, 4, 3, 5
		shards := 2 + int(shardsB%7)             // 2..8
		probes := int(probesB % uint8(shards+2)) // 0..shards+1
		overfetch := 1 + int(overB)              // 1..256: small starves the re-rank, large covers every shard
		batchSize := 1 + int(batchB%8)           // 1..8
		query := []float64{qa, qb, qc, qd}
		for _, x := range query {
			if math.IsNaN(x) || math.Abs(x) > 1e6 {
				return // non-finite similarity has no defined ordering
			}
		}

		entries, _ := clusteredCorpus(seed, n, dim, clusters)
		qt := entries[0].Time
		// Spread the corpus across namespaces: the unscoped root scans must
		// keep serving every entry regardless of tags, and each tenant view
		// must see exactly its own slice.
		tenants := []string{"", "tenant-a", "tenant-b"}
		flat := newRef(dim)
		sh := NewSharded(dim, shards, nil)
		dedicated := map[string]*refStore{"tenant-a": newRef(dim), "tenant-b": newRef(dim)}
		for i, e := range entries {
			e.Namespace = tenants[i%len(tenants)]
			must(t, flat.Add(e))
			must(t, sh.Add(e))
			if d := dedicated[e.Namespace]; d != nil {
				must(t, d.Add(e))
			}
		}
		if err := sh.TrainIVF(0); err != nil {
			t.Fatal(err)
		}
		must(t, sh.SetProbes(probes))
		if err := sh.EnableQuantized(overfetch); err != nil {
			t.Fatal(err)
		}

		// Recover the partition selection the query will see (in-package
		// white-box access; the store is quiescent, so this is the same
		// selection Search computes), and whether the candidate budget covers
		// every probed partition.
		sh.mu.RLock()
		sel := sh.probeShards(sh.gen, query, qt, 0.3, sh.Probes())
		sh.mu.RUnlock()
		covered := true
		for _, probed := range sel {
			if probed.length() > k*overfetch {
				covered = false
			}
		}

		oracle := flat
		probedIDs := make(map[string]bool)
		if sel != nil {
			oracle = newRef(dim)
			for _, probed := range sel {
				for _, e := range probed.snapshot() {
					must(t, oracle.Add(e))
					probedIDs[e.ID] = true
				}
			}
		}

		got, err := topK(sh, query, qt, k, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		gotD, err := topKDiverse(sh, query, qt, k, 0.3)
		if err != nil {
			t.Fatal(err)
		}

		// Namespace bit-identity: a fresh tenant's probe budget is 0
		// (exact fan-out), so at every fuzzed shape — quantization and root
		// probe budget included — a query scoped to the tenant, on the store
		// and on the reference alike, must match a dedicated reference store
		// holding only that tenant's entries.
		for ns, d := range dedicated {
			wantNS, err := topK(d, query, qt, k, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range []Index{sh, flat} {
				gotNS, err := topKIn(idx, ns, query, qt, k, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				sameScored(t, "namespace "+ns+" TopK", gotNS, wantNS)
			}
			wantNSD, err := topKDiverse(d, query, qt, k, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range []Index{sh, flat} {
				gotNSD, err := topKDiverseIn(idx, ns, query, qt, k, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				sameScored(t, "namespace "+ns+" TopKDiverse", gotNSD, wantNSD)
			}
		}

		// Batch bit-identity at this fuzzed shape: perturbed variants of
		// the query with mixed k/alpha/diverse must each come back exactly
		// as a one-query Search serves them — through whichever of the
		// exact/probe-limited/quantized paths the shape selects.
		batch := make([]Query, batchSize)
		for i := range batch {
			v := append([]float64(nil), query...)
			v[i%dim] += float64(i) * 0.37
			batch[i] = Query{
				Vector:  v,
				Time:    qt.AddDate(0, 0, i%2),
				K:       1 + i%7,
				Alpha:   []float64{0, 0.3, 1.1}[i%3],
				Diverse: i%2 == 0,
			}
			if i%3 == 1 {
				// Some members ride a tenant scope: the co-batched scan must
				// keep them confined to their namespace.
				batch[i].Namespace, batch[i].Scoped = tenants[1+i%2], true
			}
		}
		gotB, err := sh.Search(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, bq := range batch {
			wantB, err := search1(sh, bq)
			if err != nil {
				t.Fatal(err)
			}
			sameScored(t, fmt.Sprintf("batch member %d", i), gotB[i], wantB)
		}

		if sel == nil || covered {
			want, err := topK(oracle, query, qt, k, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			sameScored(t, "TopK", got, want)
			wantD, err := topKDiverse(oracle, query, qt, k, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			sameScored(t, "TopKDiverse", gotD, wantD)
			return
		}

		// Undercovered candidate budget: approximate within the selection.
		// Length must match the restricted oracle's, every hit must come
		// from a probed partition carrying its exact re-ranked scores, and
		// the ordering must be the standard retrieval order.
		want, err := topK(oracle, query, qt, k, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("undercovered TopK returned %d results, oracle has %d", len(got), len(want))
		}
		for i, sc := range got {
			if !probedIDs[sc.Entry.ID] {
				t.Fatalf("rank %d entry %s is outside the probed partitions", i, sc.Entry.ID)
			}
			d, s := Similarity(query, qt, sc.Entry, 0.3)
			if sc.Distance != d || sc.Similarity != s {
				t.Fatalf("rank %d entry %s carries approximate scores (%v, %v), want exact (%v, %v)",
					i, sc.Entry.ID, sc.Distance, sc.Similarity, d, s)
			}
			if i > 0 && ranksAfter(got[i-1], sc) {
				t.Fatalf("results out of retrieval order at rank %d", i)
			}
		}
		for i, sc := range gotD {
			if !probedIDs[sc.Entry.ID] {
				t.Fatalf("diverse rank %d entry %s is outside the probed partitions", i, sc.Entry.ID)
			}
			if i > 0 && ranksAfter(gotD[i-1], sc) {
				t.Fatalf("diverse results out of retrieval order at rank %d", i)
			}
		}
	})
}
