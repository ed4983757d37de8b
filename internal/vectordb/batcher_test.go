package vectordb

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// slowIndex delays every retrieval so concurrent callers pile up behind
// the batcher's dispatcher and coalescing is guaranteed to engage.
type slowIndex struct {
	Index
	delay time.Duration
}

func (s *slowIndex) Search(queries []Query) ([][]Scored, error) {
	time.Sleep(s.delay)
	return s.Index.Search(queries)
}

func buildBatcherFixture(t *testing.T) (Index, [][]float64, time.Time) {
	t.Helper()
	entries, queries := clusteredCorpus(42, 200, 6, 4)
	diversify(entries, 5)
	db := NewIndex(6, Options{Shards: 2})
	for _, e := range entries {
		must(t, db.Add(e))
	}
	return db, queries, entries[0].Time
}

// TestBatcherIdleFastPath: a lone query on an idle batcher serves
// immediately (no maxWait stall), bit-identical to the direct call, and
// accounts as one idle-flushed batch of occupancy 1.
func TestBatcherIdleFastPath(t *testing.T) {
	db, queries, qt := buildBatcherFixture(t)
	b, err := NewBatcher(db, 8, time.Hour) // a timer flush would hang the test; idle path must not arm it
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	start := time.Now()
	got, err := topK(b, queries[0], qt, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("idle single query took %v — fast path is waiting on the window timer", elapsed)
	}
	want, err := topK(db, queries[0], qt, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "idle TopK", got, want)

	gotD, err := topKDiverse(b, queries[1], qt, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := topKDiverse(db, queries[1], qt, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "idle TopKDiverse", gotD, wantD)

	st := b.Stats()
	if st.Batches != 2 || st.Queries != 2 || st.FlushIdle != 2 || st.FlushSize != 0 || st.FlushTimer != 0 {
		t.Fatalf("stats after two idle queries: %+v", st)
	}
	if st.MeanOccupancy != 1 {
		t.Fatalf("MeanOccupancy = %v, want 1", st.MeanOccupancy)
	}
}

// TestBatcherCoalesces: under heavy concurrency against a slow store the
// collector must form real batches (fewer flushes than queries), every
// result must stay bit-identical to direct serving, and the flush-reason
// counters must account for every batch.
func TestBatcherCoalesces(t *testing.T) {
	db, queries, qt := buildBatcherFixture(t)
	slow := &slowIndex{Index: db, delay: 2 * time.Millisecond}
	const maxBatch, n = 8, 64
	b, err := NewBatcher(slow, maxBatch, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i%len(queries)]
			k := 2 + i%5
			alpha := []float64{0, 0.3}[i%2]
			var got, want []Scored
			var gerr, werr error
			if i%3 == 0 {
				got, gerr = topKDiverse(b, q, qt, k, alpha)
				want, werr = topKDiverse(db, q, qt, k, alpha)
			} else {
				got, gerr = topK(b, q, qt, k, alpha)
				want, werr = topK(db, q, qt, k, alpha)
			}
			if gerr != nil || werr != nil {
				errs <- fmt.Errorf("query %d: got err %v, want err %v", i, gerr, werr)
				return
			}
			if len(got) != len(want) {
				errs <- fmt.Errorf("query %d: %d results, want %d", i, len(got), len(want))
				return
			}
			for r := range got {
				if got[r].Entry.ID != want[r].Entry.ID ||
					got[r].Similarity != want[r].Similarity ||
					got[r].Distance != want[r].Distance {
					errs <- fmt.Errorf("query %d rank %d: batched result diverges from direct", i, r)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := b.Stats()
	if st.Queries != n {
		t.Fatalf("Queries = %d, want %d", st.Queries, n)
	}
	if st.Batches >= n {
		t.Fatalf("Batches = %d with %d concurrent queries against a slow store — no coalescing happened", st.Batches, n)
	}
	if st.FlushIdle+st.FlushSize+st.FlushTimer != st.Batches {
		t.Fatalf("flush reasons (%d+%d+%d) do not account for %d batches",
			st.FlushIdle, st.FlushSize, st.FlushTimer, st.Batches)
	}
	if st.MeanOccupancy <= 1 || st.MeanOccupancy > maxBatch {
		t.Fatalf("MeanOccupancy = %v, want in (1, %d]", st.MeanOccupancy, maxBatch)
	}
}

// TestBatcherClose: Close is idempotent, and queries after Close serve
// directly through the wrapped store without touching the collector
// counters.
func TestBatcherClose(t *testing.T) {
	db, queries, qt := buildBatcherFixture(t)
	b, err := NewBatcher(db, 4, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topK(b, queries[0], qt, 3, 0.3); err != nil {
		t.Fatal(err)
	}
	before := b.Stats()
	b.Close()
	b.Close() // idempotent
	got, err := topK(b, queries[2], qt, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topK(db, queries[2], qt, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "post-close TopK", got, want)
	if after := b.Stats(); after != before {
		t.Fatalf("post-close serving touched collector stats: %+v -> %+v", before, after)
	}
}

// TestNewBatcherValidates rejects degenerate windows.
func TestNewBatcherValidates(t *testing.T) {
	db := newRef(2)
	for _, maxBatch := range []int{-1, 0, 1} {
		if _, err := NewBatcher(db, maxBatch, time.Millisecond); err == nil {
			t.Fatalf("NewBatcher accepted maxBatch %d", maxBatch)
		}
	}
	if _, err := NewBatcher(db, 2, 0); err == nil {
		t.Fatal("NewBatcher accepted zero maxWait")
	}
}

// TestAsSharded unwraps decorator layers down to the sharded store.
func TestAsSharded(t *testing.T) {
	sh := NewSharded(2, 4, nil)
	if got, ok := AsSharded(sh); !ok || got != sh {
		t.Fatal("AsSharded failed on a bare *Sharded")
	}
	b, err := NewBatcher(sh, 4, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got, ok := AsSharded(b); !ok || got != sh {
		t.Fatal("AsSharded failed through a Batcher layer")
	}
	if _, ok := AsSharded(newRef(2)); ok {
		t.Fatal("AsSharded claimed the reference store is sharded")
	}
	if _, ok := AsSharded(nil); ok {
		t.Fatal("AsSharded claimed nil is sharded")
	}
}
