package vectordb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
)

// buildDB fills a single-shard store and its reference twin with the same
// deterministic pseudo-random entries. Vectors and times are drawn from
// small discrete sets so exact similarity ties (same vector, same day,
// different IDs and categories) occur frequently — the case where the ID
// tie-break decides the ranking.
func buildDB(t *testing.T, seed int64, n, dim, numCats int) (Index, *refStore) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db, ref := NewIndex(dim, Options{Shards: 1}), newRef(dim)
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(rng.Intn(4)) // coarse grid -> many exact ties
		}
		e := Entry{
			ID:       fmt.Sprintf("INC-%06d", i),
			Vector:   v,
			Category: incident.Category(fmt.Sprintf("cat-%02d", rng.Intn(numCats))),
			Time:     base.AddDate(0, 0, rng.Intn(10)),
			Summary:  fmt.Sprintf("summary %d", i),
		}
		must(t, db.Add(e))
		must(t, ref.Add(e))
	}
	return db, ref
}

func sameScored(t *testing.T, name string, got, want []Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i].Entry.ID != want[i].Entry.ID {
			t.Fatalf("%s: rank %d: %s != %s (sim %v vs %v)",
				name, i, got[i].Entry.ID, want[i].Entry.ID, got[i].Similarity, want[i].Similarity)
		}
		if got[i].Similarity != want[i].Similarity || got[i].Distance != want[i].Distance {
			t.Fatalf("%s: rank %d: score mismatch %+v vs %+v", name, i, got[i], want[i])
		}
	}
}

// TestHeapMatchesSortReference holds the streaming-heap Search (plain and
// diverse) to the full-sort reference store across store sizes, k values
// (including k > categories and k > n), alphas, and tie-heavy vector
// grids.
func TestHeapMatchesSortReference(t *testing.T) {
	qt := time.Date(2022, 1, 6, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		name            string
		seed            int64
		n, dim, numCats int
	}{
		{"small-many-ties", 1, 40, 3, 4},
		{"medium", 2, 400, 8, 20},
		{"more-cats-than-k", 3, 200, 6, 60},
		{"single-category", 4, 100, 4, 1},
		{"tiny", 5, 3, 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, ref := buildDB(t, tc.seed, tc.n, tc.dim, tc.numCats)
			rng := rand.New(rand.NewSource(tc.seed * 97))
			for _, k := range []int{1, 2, 5, 15, tc.n + 10} {
				for _, alpha := range []float64{0, 0.001, 0.3, 0.8} {
					q := make([]float64, tc.dim)
					for j := range q {
						q[j] = float64(rng.Intn(4))
					}
					heapK, err := topK(db, q, qt, k, alpha)
					if err != nil {
						t.Fatal(err)
					}
					sortK, err := topK(ref, q, qt, k, alpha)
					if err != nil {
						t.Fatal(err)
					}
					sameScored(t, fmt.Sprintf("TopK k=%d a=%v", k, alpha), heapK, sortK)

					heapD, err := topKDiverse(db, q, qt, k, alpha)
					if err != nil {
						t.Fatal(err)
					}
					sortD, err := topKDiverse(ref, q, qt, k, alpha)
					if err != nil {
						t.Fatal(err)
					}
					sameScored(t, fmt.Sprintf("TopKDiverse k=%d a=%v", k, alpha), heapD, sortD)
				}
			}
		})
	}
}

// TestTieBreakByIDExact pins the tie contract directly: identical vectors
// and timestamps must rank by ascending ID, in the store and the
// reference alike.
func TestTieBreakByIDExact(t *testing.T) {
	db, ref := NewIndex(2, Options{Shards: 1}), newRef(2)
	at := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	// Insert in shuffled ID order so store order != ID order.
	for _, id := range []string{"INC-C", "INC-A", "INC-D", "INC-B"} {
		e := Entry{ID: id, Vector: []float64{1, 1}, Category: incident.Category("cat-" + id), Time: at}
		must(t, db.Add(e))
		must(t, ref.Add(e))
	}
	q := []float64{0, 0}
	for _, fn := range []struct {
		name string
		call func() ([]Scored, error)
	}{
		{"TopK", func() ([]Scored, error) { return topK(db, q, at, 3, 0.3) }},
		{"TopKDiverse", func() ([]Scored, error) { return topKDiverse(db, q, at, 3, 0.3) }},
		{"sortTopK", func() ([]Scored, error) { return topK(ref, q, at, 3, 0.3) }},
		{"sortTopKDiverse", func() ([]Scored, error) { return topKDiverse(ref, q, at, 3, 0.3) }},
	} {
		got, err := fn.call()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"INC-A", "INC-B", "INC-C"}
		if len(got) != 3 {
			t.Fatalf("%s: len = %d", fn.name, len(got))
		}
		for i, id := range want {
			if got[i].Entry.ID != id {
				t.Fatalf("%s: rank %d = %s, want %s", fn.name, i, got[i].Entry.ID, id)
			}
		}
	}
}

// TestDiverseTieAcrossCategories: two categories whose best entries tie
// exactly — the representative picked inside each category and the order
// between categories must both follow the ID tie-break.
func TestDiverseTieAcrossCategories(t *testing.T) {
	db, ref := NewIndex(1, Options{Shards: 1}), newRef(1)
	at := time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)
	add := func(id, cat string) {
		t.Helper()
		e := Entry{ID: id, Vector: []float64{2}, Category: incident.Category(cat), Time: at}
		must(t, db.Add(e))
		must(t, ref.Add(e))
	}
	add("INC-9", "alpha") // ties with INC-1 within alpha: INC-1 must represent
	add("INC-1", "alpha")
	add("INC-5", "beta")
	got, err := topKDiverse(db, []float64{2}, at, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topKDiverse(ref, []float64{2}, at, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "diverse-tie", got, want)
	if got[0].Entry.ID != "INC-1" || got[1].Entry.ID != "INC-5" {
		t.Fatalf("got %s,%s want INC-1,INC-5", got[0].Entry.ID, got[1].Entry.ID)
	}
}

// TestConcurrentAddAndQuery hammers the store with mixed writers and
// readers; run under `go test -race` this proves the locking discipline.
func TestConcurrentAddAndQuery(t *testing.T) {
	db := NewIndex(4, Options{Shards: 1})
	at := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	// Seed a few entries so early queries have work to do.
	for i := 0; i < 8; i++ {
		if err := db.Add(Entry{
			ID:       fmt.Sprintf("SEED-%d", i),
			Vector:   []float64{float64(i), 1, 2, 3},
			Category: incident.Category(fmt.Sprintf("c%d", i%3)),
			Time:     at,
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	const writers, readers, perG = 4, 4, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := db.Add(Entry{
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
				if _, err := topKDiverse(db, q, at.AddDate(0, 0, i%30), 5, 0.3); err != nil {
					t.Error(err)
					return
				}
				if _, err := topK(db, q, at, 3, 0.3); err != nil {
					t.Error(err)
					return
				}
				db.Len()
				db.Categories()
			}
		}(r)
	}
	wg.Wait()
	if got, want := db.Len(), 8+writers*perG; got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
}
