package vectordb

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
)

// diversify spreads a corpus across numCats categories so the diverse
// retrieval paths have real work (clusteredCorpus emits one category).
func diversify(entries []Entry, numCats int) {
	for i := range entries {
		entries[i].Category = incident.Category(fmt.Sprintf("cat-%d", i%numCats))
	}
}

// mixedBatch builds a heterogeneous batch from the fixture queries:
// varying k, alpha, diversity flag, and anchor time across members.
func mixedBatch(queries [][]float64, qt time.Time, size int) []Query {
	batch := make([]Query, size)
	for i := range batch {
		batch[i] = Query{
			Vector:  queries[i%len(queries)],
			Time:    qt.AddDate(0, 0, i%3),
			K:       2 + i%7,
			Alpha:   []float64{0, 0.3, 0.8}[i%3],
			Diverse: i%2 == 1,
		}
	}
	return batch
}

// sequentialBatch serves a batch one query per Search call — the
// oracle the batch bit-identity contract is pinned against.
func sequentialBatch(t *testing.T, idx Index, batch []Query) [][]Scored {
	t.Helper()
	out := make([][]Scored, len(batch))
	for i, bq := range batch {
		var err error
		out[i], err = search1(idx, bq)
		if err != nil {
			t.Fatalf("sequential query %d: %v", i, err)
		}
	}
	return out
}

// TestTopKBatchMatchesSequential is the batch bit-identity golden: for
// every shard count and serving mode, Search over a heterogeneous batch
// must return, per query, exactly what a one-query Search returns — same
// entries, same bitwise (distance, similarity) scores, same order — and in
// exact mode exactly what the reference store returns.
func TestTopKBatchMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 2, 7, 16} {
		for _, mode := range []string{"exact", "probe", "quantized"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, mode), func(t *testing.T) {
				entries, queries := clusteredCorpus(77, 400, 8, 5)
				diversify(entries, 6)
				sh := NewSharded(8, shards, nil)
				for _, e := range entries {
					must(t, sh.Add(e))
				}
				if mode != "exact" && shards > 1 {
					// A single shard cannot train an IVF; its "probe" cell
					// pins the exact fallback instead.
					if err := sh.TrainIVF(0); err != nil {
						t.Fatal(err)
					}
					must(t, sh.SetProbes(2))
				}
				if mode == "quantized" {
					// Overfetch 2 keeps the candidate cut genuinely
					// approximate, the regime where per-query threshold state
					// could drift between batched and sequential scans.
					if err := sh.EnableQuantized(2); err != nil {
						t.Fatal(err)
					}
				}
				batch := mixedBatch(queries, entries[0].Time, 23)
				got, err := sh.Search(batch)
				if err != nil {
					t.Fatal(err)
				}
				want := sequentialBatch(t, sh, batch)
				for i := range batch {
					sameScored(t, fmt.Sprintf("query %d", i), got[i], want[i])
				}
				if mode == "exact" {
					ref := newRef(8)
					for _, e := range entries {
						must(t, ref.Add(e))
					}
					for i, w := range sequentialBatch(t, ref, batch) {
						sameScored(t, fmt.Sprintf("query %d vs reference", i), got[i], w)
					}
				}
			})
		}
	}
}

// TestTopKBatchFlatMatchesSequential pins the single-shard (flat) store's
// batched pass to its one-query searches and to the reference store.
func TestTopKBatchFlatMatchesSequential(t *testing.T) {
	entries, queries := clusteredCorpus(31, 300, 6, 4)
	diversify(entries, 5)
	db := NewIndex(6, Options{Shards: 1})
	ref := newRef(6)
	for _, e := range entries {
		must(t, db.Add(e))
		must(t, ref.Add(e))
	}
	batch := mixedBatch(queries, entries[0].Time, 17)
	got, err := db.Search(batch)
	if err != nil {
		t.Fatal(err)
	}
	want := sequentialBatch(t, db, batch)
	oracle := sequentialBatch(t, ref, batch)
	for i := range batch {
		sameScored(t, fmt.Sprintf("query %d", i), got[i], want[i])
		sameScored(t, fmt.Sprintf("query %d vs reference", i), got[i], oracle[i])
	}
}

// TestTopKBatchMidRebalance wedges a rebalance mid-drain (partitioner
// blocked on a gate) and holds the batched path to the sequential one
// while both generations are live — the draining-first, dedup-by-ID merge
// must survive loop inversion — and to the reference store.
func TestTopKBatchMidRebalance(t *testing.T) {
	const dim = 2
	for _, shards := range []int{1, 2, 7, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sh := NewSharded(dim, shards, nil)
			ref := newRef(dim)
			rng := rand.New(rand.NewSource(int64(shards)))
			for i := 0; i < 40; i++ {
				e := entry(fmt.Sprintf("SEED-%02d", i),
					incident.Category(fmt.Sprintf("c%d", i%5)),
					[]float64{rng.Float64() * 10, rng.Float64() * 10}, i%9)
				must(t, sh.Add(e))
				must(t, ref.Add(e))
			}
			gp := &gatedPartitioner{n: 3, sentinel: "SEED-00", gate: make(chan struct{}), entered: make(chan struct{})}
			rebDone := make(chan error, 1)
			go func() { rebDone <- sh.Rebalance(gp) }()
			select {
			case <-gp.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("rebalance never reached the drain")
			}

			queries := make([][]float64, 8)
			for i := range queries {
				queries[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
			}
			batch := mixedBatch(queries, t0, 11)
			got, err := sh.Search(batch)
			if err != nil {
				t.Fatal(err)
			}
			want := sequentialBatch(t, sh, batch)
			for i := range batch {
				sameScored(t, fmt.Sprintf("query %d", i), got[i], want[i])
			}
			for i, w := range sequentialBatch(t, ref, batch) {
				sameScored(t, fmt.Sprintf("query %d vs reference", i), got[i], w)
			}

			close(gp.gate)
			if err := <-rebDone; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTopKBatchValidates: a malformed member poisons the whole batch with
// an error naming the offending index, and an empty batch is a cheap
// no-op.
func TestTopKBatchValidates(t *testing.T) {
	for name, idx := range map[string]Index{"flat": newRef(3), "sharded": NewSharded(3, 4, nil)} {
		must(t, idx.Add(entry("a", "X", []float64{1, 2, 3}, 0)))
		out, err := idx.Search(nil)
		if err != nil || len(out) != 0 {
			t.Fatalf("%s: empty batch: out=%v err=%v", name, out, err)
		}
		good := Query{Vector: []float64{1, 2, 3}, Time: t0, K: 2}
		_, err = idx.Search([]Query{good, {Vector: []float64{1}, Time: t0, K: 2}})
		if err == nil || !strings.Contains(err.Error(), "batch query 1") {
			t.Fatalf("%s: dim mismatch error %v does not name the query index", name, err)
		}
		_, err = idx.Search([]Query{good, {Vector: []float64{1, 2, 3}, Time: t0, K: 0}})
		if err == nil || !strings.Contains(err.Error(), "batch query 1") {
			t.Fatalf("%s: bad-k error %v does not name the query index", name, err)
		}
	}
}

// TestTopKBatchConcurrentHammer races batched Search against concurrent
// ingest and an IVF retrain (which drives a full generation swap under
// the batch's feet). Run under -race in CI; correctness here is "no
// panic, valid shape, retrieval order" — bit-identity under a quiescent
// store is the goldens' job.
func TestTopKBatchConcurrentHammer(t *testing.T) {
	entries, queries := clusteredCorpus(5, 400, 8, 4)
	diversify(entries, 5)
	sh := NewSharded(8, 4, nil)
	for _, e := range entries[:200] {
		must(t, sh.Add(e))
	}
	if err := sh.TrainIVF(0); err != nil {
		t.Fatal(err)
	}
	must(t, sh.SetProbes(1))
	if err := sh.EnableQuantized(0); err != nil {
		t.Fatal(err)
	}
	qt := entries[0].Time

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 3)
	wg.Add(3)
	go func() { // ingest
		defer wg.Done()
		for _, e := range entries[200:] {
			if err := sh.Add(e); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() { // retrain / rebalance churn
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if err := sh.TrainIVF(1); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() { // batched queries
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := mixedBatch(queries[(i*3)%50:], qt, 9)
			out, err := sh.Search(batch)
			if err != nil {
				errc <- err
				return
			}
			for qi, scs := range out {
				if len(scs) > batch[qi].K {
					errc <- fmt.Errorf("query %d returned %d > k=%d", qi, len(scs), batch[qi].K)
					return
				}
				for r := 1; r < len(scs); r++ {
					if ranksAfter(scs[r-1], scs[r]) {
						errc <- fmt.Errorf("query %d out of retrieval order at rank %d", qi, r)
						return
					}
				}
			}
		}
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	timer := time.NewTimer(2 * time.Second)
	select {
	case err := <-errc:
		close(stop)
		t.Fatal(err)
	case <-timer.C:
	}
	close(stop)
	select {
	case <-done:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("hammer goroutines did not drain")
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
