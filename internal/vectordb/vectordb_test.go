package vectordb

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/incident"
)

var t0 = time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)

func entry(id string, cat incident.Category, v []float64, daysAgo int) Entry {
	return Entry{ID: id, Category: cat, Vector: v, Time: t0.AddDate(0, 0, -daysAgo), Summary: "s-" + id}
}

func TestAddAndGet(t *testing.T) {
	db := NewIndex(3, Options{Shards: 1})
	if err := db.Add(entry("a", "X", []float64{1, 0, 0}, 1)); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 || db.Dim() != 3 {
		t.Fatalf("Len=%d Dim=%d", db.Len(), db.Dim())
	}
	got, ok := db.Get("a")
	if !ok || got.Category != "X" {
		t.Fatalf("Get = %+v/%v", got, ok)
	}
	if _, ok := db.Get("missing"); ok {
		t.Fatal("Get on missing ID should miss")
	}
}

func TestAddValidation(t *testing.T) {
	db := NewIndex(3, Options{Shards: 1})
	if err := db.Add(entry("a", "X", []float64{1, 0}, 1)); err == nil {
		t.Fatal("dim mismatch should fail")
	}
	if err := db.Add(Entry{ID: "", Vector: []float64{1, 0, 0}}); err == nil {
		t.Fatal("empty ID should fail")
	}
	if err := db.Add(entry("a", "X", []float64{1, 0, 0}, 1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(entry("a", "Y", []float64{0, 1, 0}, 1)); err == nil {
		t.Fatal("duplicate ID should fail")
	}
}

func TestVectorIsolation(t *testing.T) {
	db := NewIndex(2, Options{Shards: 1})
	v := []float64{1, 2}
	if err := db.Add(Entry{ID: "a", Category: "X", Vector: v, Time: t0}); err != nil {
		t.Fatal(err)
	}
	v[0] = 99
	got, _ := db.Get("a")
	if got.Vector[0] != 1 {
		t.Fatal("Add must copy the vector")
	}
}

func TestSimilarityFormula(t *testing.T) {
	e := entry("a", "X", []float64{0, 0}, 0)
	e.Time = t0
	// Same vector, same day: sim = 1/(1+0) * e^0 = 1.
	if _, sim := Similarity([]float64{0, 0}, t0, e, 0.3); math.Abs(sim-1) > 1e-12 {
		t.Fatalf("identical same-day similarity = %f, want 1", sim)
	}
	// Distance 1, 2 days apart, alpha 0.3: 1/2 * e^-0.6.
	e2 := Entry{ID: "b", Vector: []float64{1, 0}, Time: t0.AddDate(0, 0, -2)}
	dist, sim := Similarity([]float64{0, 0}, t0, e2, 0.3)
	if math.Abs(dist-1) > 1e-12 {
		t.Fatalf("distance = %f, want 1", dist)
	}
	want := 0.5 * math.Exp(-0.6)
	if math.Abs(sim-want) > 1e-12 {
		t.Fatalf("similarity = %f, want %f", sim, want)
	}
}

func TestTopKDiverseOneEntryPerCategory(t *testing.T) {
	db := NewIndex(2, Options{Shards: 1})
	// Three entries of category X at increasing distance, one Y far away.
	must(t, db.Add(entry("x1", "X", []float64{0.1, 0}, 0)))
	must(t, db.Add(entry("x2", "X", []float64{0.2, 0}, 0)))
	must(t, db.Add(entry("x3", "X", []float64{0.3, 0}, 0)))
	must(t, db.Add(entry("y1", "Y", []float64{5, 5}, 0)))

	hits, err := topKDiverse(db, []float64{0, 0}, t0, 3, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits = %d, want 2 (only 2 categories exist)", len(hits))
	}
	if hits[0].Entry.ID != "x1" {
		t.Fatalf("best hit = %s, want x1", hits[0].Entry.ID)
	}
	if hits[1].Entry.Category != "Y" {
		t.Fatalf("second hit category = %s, want Y", hits[1].Entry.Category)
	}
}

func TestTopKWithoutDiversityReturnsDuplicateCategories(t *testing.T) {
	db := NewIndex(2, Options{Shards: 1})
	must(t, db.Add(entry("x1", "X", []float64{0.1, 0}, 0)))
	must(t, db.Add(entry("x2", "X", []float64{0.2, 0}, 0)))
	must(t, db.Add(entry("y1", "Y", []float64{5, 5}, 0)))
	hits, err := topK(db, []float64{0, 0}, t0, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0].Entry.Category != "X" || hits[1].Entry.Category != "X" {
		t.Fatalf("TopK should allow same-category hits, got %+v", hits)
	}
}

func TestTemporalDecayPrefersRecent(t *testing.T) {
	db := NewIndex(2, Options{Shards: 1})
	// Identical vectors; one 2 days old, one 60 days old.
	must(t, db.Add(entry("recent", "X", []float64{1, 1}, 2)))
	must(t, db.Add(entry("ancient", "Y", []float64{1, 1}, 60)))
	hits, err := topKDiverse(db, []float64{1, 1}, t0, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if hits[0].Entry.ID != "recent" {
		t.Fatalf("temporal decay should rank the recent incident first, got %s", hits[0].Entry.ID)
	}
	if hits[0].Similarity <= hits[1].Similarity {
		t.Fatal("recent incident must score strictly higher")
	}
}

func TestAlphaZeroIgnoresTime(t *testing.T) {
	db := NewIndex(2, Options{Shards: 1})
	must(t, db.Add(entry("near-old", "X", []float64{1, 0}, 100)))
	must(t, db.Add(entry("far-new", "Y", []float64{3, 0}, 0)))
	hits, err := topKDiverse(db, []float64{1, 0}, t0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hits[0].Entry.ID != "near-old" {
		t.Fatal("alpha=0 must rank purely by embedding distance")
	}
}

func TestQueryValidation(t *testing.T) {
	db := NewIndex(2, Options{Shards: 1})
	must(t, db.Add(entry("a", "X", []float64{1, 0}, 0)))
	if _, err := topKDiverse(db, []float64{1}, t0, 1, 0.3); err == nil {
		t.Fatal("query dim mismatch should fail")
	}
	if _, err := topKDiverse(db, []float64{1, 0}, t0, 0, 0.3); err == nil {
		t.Fatal("k=0 should fail")
	}
	if _, err := topK(db, []float64{1}, t0, 1, 0.3); err == nil {
		t.Fatal("TopK dim mismatch should fail")
	}
}

func TestCategories(t *testing.T) {
	db := NewIndex(1, Options{Shards: 1})
	must(t, db.Add(entry("a", "B", []float64{1}, 0)))
	must(t, db.Add(entry("b", "A", []float64{2}, 0)))
	must(t, db.Add(entry("c", "B", []float64{3}, 0)))
	cats := db.Categories()
	if len(cats) != 2 || cats[0] != "A" || cats[1] != "B" {
		t.Fatalf("Categories = %v", cats)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// Property: similarity is in (0, 1] and monotonically decreasing in both
// embedding distance and time gap.
func TestQuickSimilarityProperties(t *testing.T) {
	inRange := func(x, y [4]float64, days uint8) bool {
		a, b := clampVec(x), clampVec(y)
		e := Entry{ID: "e", Vector: b, Time: t0.AddDate(0, 0, -int(days%120))}
		_, sim := Similarity(a, t0, e, 0.3)
		return sim > 0 && sim <= 1
	}
	if err := quick.Check(inRange, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	monotoneTime := func(x [4]float64, d1, d2 uint8) bool {
		v := clampVec(x)
		g1, g2 := int(d1%120), int(d2%120)
		if g1 > g2 {
			g1, g2 = g2, g1
		}
		e1 := Entry{Vector: v, Time: t0.AddDate(0, 0, -g1)}
		e2 := Entry{Vector: v, Time: t0.AddDate(0, 0, -g2)}
		_, s1 := Similarity(v, t0, e1, 0.3)
		_, s2 := Similarity(v, t0, e2, 0.3)
		return s1 >= s2
	}
	if err := quick.Check(monotoneTime, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func clampVec(a [4]float64) []float64 {
	out := make([]float64, len(a))
	for i, x := range a {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[i] = math.Mod(x, 100)
	}
	return out
}

// Property: TopKDiverse never repeats a category and returns results in
// non-increasing similarity order.
func TestQuickTopKDiverseInvariants(t *testing.T) {
	f := func(seeds [12]float64, k uint8) bool {
		db := NewIndex(2, Options{Shards: 1})
		for i, s := range seeds {
			x := math.Mod(math.Abs(s), 10)
			if math.IsNaN(x) {
				x = 0
			}
			cat := incident.Category(fmt.Sprintf("C%d", i%4))
			if err := db.Add(Entry{
				ID:       fmt.Sprintf("e%d", i),
				Vector:   []float64{x, float64(i % 3)},
				Time:     t0.AddDate(0, 0, -(i % 30)),
				Category: cat,
			}); err != nil {
				return false
			}
		}
		kk := int(k%6) + 1
		hits, err := topKDiverse(db, []float64{1, 1}, t0, kk, 0.3)
		if err != nil {
			return false
		}
		seen := make(map[incident.Category]bool)
		for i, h := range hits {
			if seen[h.Entry.Category] {
				return false
			}
			seen[h.Entry.Category] = true
			if i > 0 && hits[i-1].Similarity < h.Similarity {
				return false
			}
		}
		return len(hits) <= kk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
