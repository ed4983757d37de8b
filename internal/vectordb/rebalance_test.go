package vectordb

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/incident"
)

// hostilePartitioner routes every route'th entry out of range — the
// misbehaving Partitioner implementation the validation satellite guards
// against.
type hostilePartitioner struct {
	n   int
	dst func(e Entry) int
}

func (h hostilePartitioner) Shards() int       { return h.n }
func (h hostilePartitioner) Route(e Entry) int { return h.dst(e) }

// TestRebalanceRejectsHostilePartitioner: a partitioner returning a shard
// index outside [0, shards) must produce a descriptive error and leave the
// store untouched — contents, shard count, routing, and query results.
func TestRebalanceRejectsHostilePartitioner(t *testing.T) {
	cases := []struct {
		name string
		dst  func(e Entry) int
	}{
		{"negative", func(Entry) int { return -1 }},
		{"equal-to-shards", func(Entry) int { return 3 }},
		{"far-out-of-range", func(Entry) int { return 1 << 20 }},
		{"one-bad-entry", func(e Entry) int {
			if e.ID == "INC-000007" {
				return -5
			}
			return 0
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed, n, dim, numCats = 31, 60, 4, 6
			sh := NewSharded(dim, 5, nil)
			fillIndex(t, sh, seed, n, dim, numCats)
			qt := time.Date(2022, 1, 6, 0, 0, 0, 0, time.UTC)
			q := []float64{1, 2, 0, 3}
			before, err := topK(sh, q, qt, 10, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			prevShards, prevParts, prevEpoch := sh.NumShards(), sh.Partitioner(), sh.Epoch()

			err = sh.Rebalance(hostilePartitioner{n: 3, dst: tc.dst})
			if err == nil {
				t.Fatal("hostile partitioner must be rejected")
			}
			if got := err.Error(); !strings.Contains(got, "routed entry") {
				t.Fatalf("error %q is not descriptive about the bad route", got)
			}
			if sh.Len() != n {
				t.Fatalf("Len = %d after rejected rebalance, want %d", sh.Len(), n)
			}
			if sh.NumShards() != prevShards || sh.Partitioner() != prevParts || sh.Epoch() != prevEpoch {
				t.Fatal("rejected rebalance changed routing state")
			}
			after, err := topK(sh, q, qt, 10, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			sameScored(t, "hostile-"+tc.name, after, before)
		})
	}
}

// TestAddRejectsHostileRoute: Add itself validates the partitioner's
// placement, so a store constructed over a hostile partitioner errors
// instead of panicking or corrupting.
func TestAddRejectsHostileRoute(t *testing.T) {
	sh := NewSharded(2, 0, hostilePartitioner{n: 3, dst: func(Entry) int { return 7 }})
	err := sh.Add(entry("a", "X", []float64{1, 2}, 0))
	if err == nil {
		t.Fatal("Add through a hostile partitioner must fail")
	}
	if sh.Len() != 0 {
		t.Fatalf("Len = %d after rejected Add", sh.Len())
	}
	// The rejected ID is not leaked into the duplicate filter: a later
	// valid store (same partitioner type, in-range) accepts it.
	if _, ok := sh.Get("a"); ok {
		t.Fatal("rejected entry is visible")
	}
}

// gatedPartitioner blocks inside Route for one sentinel entry until the
// gate closes — it simulates a slow migration step so tests can prove
// ingest and queries flow while a rebalance is mid-drain. The sentinel's
// first routing is Rebalance's pre-validation pass; the block engages on
// the second, which is the drain itself.
type gatedPartitioner struct {
	n        int
	sentinel string
	gate     chan struct{}
	entered  chan struct{}
	seen     atomic.Int32
	once     sync.Once
}

func (g *gatedPartitioner) Shards() int { return g.n }
func (g *gatedPartitioner) Route(e Entry) int {
	if e.ID == g.sentinel && g.seen.Add(1) == 2 {
		g.once.Do(func() { close(g.entered) })
		<-g.gate
	}
	return 0
}

// TestRebalanceDoesNotStopTheWorld is the online-rebalance acceptance
// test: with a Rebalance wedged mid-drain (its partitioner blocked on a
// gate), Add, TopK, TopKDiverse, Get and Len must all complete — the old
// stop-the-world implementation held the store-wide lock exclusively for
// the whole rebalance and would deadlock this test.
func TestRebalanceDoesNotStopTheWorld(t *testing.T) {
	const dim = 2
	sh := NewSharded(dim, 4, nil)
	for i := 0; i < 12; i++ {
		must(t, sh.Add(entry(fmt.Sprintf("SEED-%02d", i), incident.Category(fmt.Sprintf("c%d", i%3)), []float64{float64(i), 1}, 0)))
	}

	gp := &gatedPartitioner{n: 3, sentinel: "SEED-00", gate: make(chan struct{}), entered: make(chan struct{})}
	rebDone := make(chan error, 1)
	go func() { rebDone <- sh.Rebalance(gp) }()

	select {
	case <-gp.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("rebalance never reached the drain")
	}
	if !sh.Rebalancing() {
		t.Fatal("store does not report an in-flight rebalance")
	}

	// The rebalance is now wedged mid-drain. Everything else must flow.
	ops := make(chan error, 1)
	go func() {
		if err := sh.Add(entry("NEW-1", "c9", []float64{5, 5}, 0)); err != nil {
			ops <- err
			return
		}
		if _, err := topK(sh, []float64{5, 5}, t0, 5, 0.3); err != nil {
			ops <- err
			return
		}
		if _, err := topKDiverse(sh, []float64{5, 5}, t0, 5, 0.3); err != nil {
			ops <- err
			return
		}
		if _, ok := sh.Get("NEW-1"); !ok {
			ops <- fmt.Errorf("Get(NEW-1) missed mid-rebalance")
			return
		}
		if got := sh.Len(); got != 13 {
			ops <- fmt.Errorf("Len = %d mid-rebalance, want 13", got)
			return
		}
		ops <- nil
	}()
	select {
	case err := <-ops:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Add/TopK blocked behind an in-flight rebalance (store-wide exclusive lock?)")
	}

	// Mid-rebalance queries stay exact: identical to a reference store over the
	// deduplicated snapshot.
	flat := newRef(dim)
	for _, e := range sh.snapshotSortedByID() {
		must(t, flat.Add(e))
	}
	queryGrid(t, "mid-rebalance", flat, sh, 41, sh.Len(), dim)

	close(gp.gate)
	if err := <-rebDone; err != nil {
		t.Fatal(err)
	}
	if sh.Rebalancing() {
		t.Fatal("rebalance still reported in flight after completion")
	}
	if sh.NumShards() != 3 {
		t.Fatalf("NumShards = %d after rebalance, want 3", sh.NumShards())
	}
	if got := sh.Len(); got != 13 {
		t.Fatalf("Len = %d after rebalance, want 13 (drain dropped or duplicated entries)", got)
	}
	if _, ok := sh.Get("NEW-1"); !ok {
		t.Fatal("entry added mid-rebalance lost after the drain")
	}
	queryGrid(t, "post-gated-rebalance", flat, sh, 43, sh.Len(), dim)
}

// idSet collects every entry ID via the deduplicated snapshot.
func idSet(s *Sharded) map[string]bool {
	out := make(map[string]bool)
	for _, e := range s.snapshotSortedByID() {
		out[e.ID] = true
	}
	return out
}

// TestIncrementalRebalanceHammer is the race hammer from the satellite
// checklist: concurrent Add + TopK/TopKDiverse/Get with TrainIVF and
// Rebalance repeatedly mid-flight. Run under -race it proves the locking;
// after quiesce, Len and the ID set must show no dropped or duplicated
// entries and results must match the reference store exactly.
func TestIncrementalRebalanceHammer(t *testing.T) {
	const writers, readers, rebalancers, perG = 4, 3, 2, 120
	sh := NewSharded(4, 6, nil)
	at := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
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
					ID:       fmt.Sprintf("W%d-%04d", w, i),
					Vector:   []float64{float64(i % 7), float64(w), 0, 1},
					Category: incident.Category(fmt.Sprintf("c%d", i%5)),
					Time:     at.AddDate(0, 0, i%30),
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
			for i := 0; i < perG; i++ {
				if _, err := topK(sh, q, at, 5, 0.3); err != nil {
					t.Error(err)
					return
				}
				if _, err := topKDiverse(sh, q, at.AddDate(0, 0, i%30), 5, 0.3); err != nil {
					t.Error(err)
					return
				}
				sh.Get(fmt.Sprintf("W%d-%04d", r, i))
				sh.Len()
				sh.ShardLens()
			}
		}(r)
	}
	for b := 0; b < rebalancers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if b == 0 {
					if err := sh.TrainIVF(2); err != nil {
						t.Error(err)
						return
					}
				} else {
					if err := sh.Rebalance(CategoryHash{N: 3 + i%4}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(b)
	}
	wg.Wait()

	// Quiesced invariants: exact count, exact ID set, no dups, no losses.
	wantLen := 10 + writers*perG
	if got := sh.Len(); got != wantLen {
		t.Fatalf("Len = %d, want %d", got, wantLen)
	}
	ids := idSet(sh)
	if len(ids) != wantLen {
		t.Fatalf("ID set has %d entries, want %d (drops or duplicates)", len(ids), wantLen)
	}
	for i := 0; i < 10; i++ {
		if !ids[fmt.Sprintf("SEED-%d", i)] {
			t.Fatalf("SEED-%d lost", i)
		}
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perG; i++ {
			if !ids[fmt.Sprintf("W%d-%04d", w, i)] {
				t.Fatalf("W%d-%04d lost", w, i)
			}
		}
	}
	flat := newRef(4)
	for _, e := range sh.snapshotSortedByID() {
		must(t, flat.Add(e))
	}
	queryGrid(t, "post-rebalance-hammer", flat, sh, 53, sh.Len(), 4)
}

// TestRebalanceConcurrentWithSaveLoad exercises persistence against an
// in-flight drain: Save mid-rebalance must produce a deduplicated
// snapshot a fresh store loads cleanly.
func TestRebalanceConcurrentWithSaveLoad(t *testing.T) {
	const dim = 2
	sh := NewSharded(dim, 4, nil)
	for i := 0; i < 30; i++ {
		must(t, sh.Add(entry(fmt.Sprintf("INC-%03d", i), incident.Category(fmt.Sprintf("c%d", i%4)), []float64{float64(i), 2}, 0)))
	}
	gp := &gatedPartitioner{n: 2, sentinel: "INC-000", gate: make(chan struct{}), entered: make(chan struct{})}
	rebDone := make(chan error, 1)
	go func() { rebDone <- sh.Rebalance(gp) }()
	<-gp.entered

	var buf bytes.Buffer
	if err := sh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	close(gp.gate)
	if err := <-rebDone; err != nil {
		t.Fatal(err)
	}

	fresh := NewSharded(dim, 3, nil)
	if err := fresh.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 30 {
		t.Fatalf("mid-rebalance snapshot loaded %d entries, want 30", fresh.Len())
	}
	ids := idSet(fresh)
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	if len(sorted) != 30 || sorted[0] != "INC-000" || sorted[29] != "INC-029" {
		t.Fatalf("snapshot ID set wrong: %d ids, first %s last %s", len(sorted), sorted[0], sorted[len(sorted)-1])
	}
}
