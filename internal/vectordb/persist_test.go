package vectordb

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"time"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := NewIndex(3, Options{Shards: 1})
	must(t, db.Add(entry("a", "X", []float64{1, 0, 0}, 1)))
	must(t, db.Add(entry("b", "Y", []float64{0, 1, 0}, 5)))
	must(t, db.Add(entry("c", "X", []float64{0, 0, 1}, 9)))

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewIndex(3, Options{Shards: 1})
	if err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 3 {
		t.Fatalf("loaded len = %d", db2.Len())
	}
	got, ok := db2.Get("b")
	if !ok || got.Category != "Y" || got.Vector[1] != 1 {
		t.Fatalf("loaded entry = %+v/%v", got, ok)
	}
	// Queries work identically after reload.
	hits, err := topKDiverse(db2, []float64{1, 0, 0}, t0, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if hits[0].Entry.ID != "a" {
		t.Fatalf("post-load retrieval broken: %+v", hits)
	}
	// Loaded store still rejects duplicates against loaded IDs.
	if err := db2.Add(entry("a", "Z", []float64{1, 1, 1}, 0)); err == nil {
		t.Fatal("duplicate ID after load should fail")
	}
}

func TestLoadRejectsDimMismatch(t *testing.T) {
	db := NewIndex(2, Options{Shards: 1})
	must(t, db.Add(entry("a", "X", []float64{1, 0}, 1)))
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	for _, idx := range []Index{NewIndex(5, Options{Shards: 1}), NewSharded(5, 4, nil)} {
		err := idx.Load(bytes.NewReader(snap))
		if err == nil {
			t.Fatal("dim mismatch should fail")
		}
		// The error must name both dimensionalities, not just reject.
		if !strings.Contains(err.Error(), "2") || !strings.Contains(err.Error(), "5") {
			t.Fatalf("undiagnostic dim-mismatch error: %v", err)
		}
	}
}

// TestLoadRejectsCorruptEntriesWithoutClobbering covers snapshots whose
// declared dim matches the store but whose entries are malformed: the load
// must fail descriptively and leave the previous store contents intact
// rather than silently corrupting them.
func TestLoadRejectsCorruptEntriesWithoutClobbering(t *testing.T) {
	corrupt := []struct {
		name string
		snap snapshot
		want string
	}{
		{"entry-dim", snapshot{Dim: 2, Entries: []Entry{
			{ID: "bad", Vector: []float64{1, 2, 3}, Category: "X", Time: t0},
		}}, "dim 3"},
		{"empty-id", snapshot{Dim: 2, Entries: []Entry{
			{ID: "", Vector: []float64{1, 2}, Category: "X", Time: t0},
		}}, "empty ID"},
		{"duplicate-id", snapshot{Dim: 2, Entries: []Entry{
			{ID: "dup", Vector: []float64{1, 2}, Category: "X", Time: t0},
			{ID: "dup", Vector: []float64{3, 4}, Category: "Y", Time: t0},
		}}, "duplicate"},
	}
	for _, tc := range corrupt {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(tc.snap); err != nil {
				t.Fatal(err)
			}
			snap := buf.Bytes()
			for _, idx := range []Index{NewIndex(2, Options{Shards: 1}), NewSharded(2, 3, nil)} {
				must(t, idx.Add(entry("keep", "K", []float64{7, 7}, 2)))
				err := idx.Load(bytes.NewReader(snap))
				if err == nil {
					t.Fatalf("%T: corrupt snapshot should fail", idx)
				}
				if !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%T: error %q does not mention %q", idx, err, tc.want)
				}
				if idx.Len() != 1 {
					t.Fatalf("%T: failed load clobbered the store (len %d)", idx, idx.Len())
				}
				if _, ok := idx.Get("keep"); !ok {
					t.Fatalf("%T: failed load dropped existing entry", idx)
				}
			}
		})
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	db := NewIndex(2, Options{Shards: 1})
	if err := db.Load(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("garbage should fail")
	}
	sh := NewSharded(2, 3, nil)
	if err := sh.Load(bytes.NewReader([]byte("not gob"))); err == nil {
		t.Fatal("garbage should fail")
	}
}

// TestFlatShardedRoundTrip drives a snapshot from the reference store (no
// trailer, insertion order) into a 7-shard store and on into a 1-shard
// store, and requires every hop to behave identically to the original:
// snapshots move freely between shard counts.
func TestFlatShardedRoundTrip(t *testing.T) {
	const seed, n, dim, numCats = 21, 150, 5, 9
	orig := newRef(dim)
	fillIndex(t, orig, seed, n, dim, numCats)

	var flatSnap bytes.Buffer
	if err := orig.Save(&flatSnap); err != nil {
		t.Fatal(err)
	}
	sh := NewSharded(dim, 7, nil)
	if err := sh.Load(&flatSnap); err != nil {
		t.Fatal(err)
	}
	if sh.Len() != n {
		t.Fatalf("sharded loaded %d entries, want %d", sh.Len(), n)
	}
	queryGrid(t, "flat->sharded", orig, sh, seed, n, dim)

	var shardSnap bytes.Buffer
	if err := sh.Save(&shardSnap); err != nil {
		t.Fatal(err)
	}
	back := NewIndex(dim, Options{Shards: 1})
	if err := back.Load(&shardSnap); err != nil {
		t.Fatal(err)
	}
	if back.Len() != n {
		t.Fatalf("flat reloaded %d entries, want %d", back.Len(), n)
	}
	for _, e := range orig.entries {
		got, ok := back.Get(e.ID)
		if !ok {
			t.Fatalf("entry %s lost in round trip", e.ID)
		}
		if got.Category != e.Category || !got.Time.Equal(e.Time) || got.Summary != e.Summary {
			t.Fatalf("entry %s mutated in round trip: %+v vs %+v", e.ID, got, e)
		}
	}
	queryGrid(t, "sharded->flat", orig, back, seed+1, n, dim)
	// Loaded stores still reject duplicates against loaded IDs.
	if err := back.Add(entry("INC-000000", "Z", make([]float64, dim), 0)); err == nil {
		t.Fatal("duplicate ID after round trip should fail")
	}
	if err := sh.Add(entry("INC-000000", "Z", make([]float64, dim), 0)); err == nil {
		t.Fatal("duplicate ID after sharded load should fail")
	}
}

func TestCountByCategory(t *testing.T) {
	db := NewIndex(1, Options{Shards: 1})
	must(t, db.Add(entry("a", "X", []float64{1}, 0)))
	must(t, db.Add(entry("b", "X", []float64{2}, 0)))
	must(t, db.Add(entry("c", "Y", []float64{3}, 0)))
	counts := db.CountByCategory()
	if counts["X"] != 2 || counts["Y"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestServingStateRoundTrip covers the serving-state trailer Sharded.Save
// appends: the converged probe budget and the tuner's hysteresis floor,
// retrain clock, and lifetime recall aggregate must survive a redeploy —
// whether the controller is installed before or after the Load.
func TestServingStateRoundTrip(t *testing.T) {
	const dim, shards = 4, 5

	build := func() *Sharded {
		sh := NewSharded(dim, shards, nil)
		fillIndex(t, sh, 31, 80, dim, 4)
		must(t, sh.TrainIVF(0))
		return sh
	}

	t.Run("probes-only", func(t *testing.T) {
		src := build()
		must(t, src.SetProbes(3))
		var buf bytes.Buffer
		if err := src.Save(&buf); err != nil {
			t.Fatal(err)
		}
		dst := NewSharded(dim, shards, nil)
		if err := dst.Load(&buf); err != nil {
			t.Fatal(err)
		}
		if dst.Probes() != 3 {
			t.Fatalf("probe budget after load = %d, want 3", dst.Probes())
		}
	})

	retrainAt := time.Date(2022, 5, 20, 10, 0, 0, 0, time.UTC)
	saveConverged := func(t *testing.T) []byte {
		src := build()
		tn, err := src.EnableAdaptive(AutoConfig{RecallTarget: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		// Stand in for a converged controller: budget 4, budget 2 recently
		// observed missing the SLO, a retrain on the clock, 7 recall samples.
		tn.mu.Lock()
		tn.lastBad = 2
		tn.lastRetrain = retrainAt
		tn.recallSum, tn.recallN = 6.3, 7
		tn.mu.Unlock()
		tn.pinProbes(4)
		var buf bytes.Buffer
		if err := src.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	checkRestored := func(t *testing.T, dst *Sharded, tn *Tuner) {
		t.Helper()
		if dst.Probes() != 4 {
			t.Fatalf("probe budget after load = %d, want 4", dst.Probes())
		}
		tn.mu.Lock()
		lastBad, lastRetrain := tn.lastBad, tn.lastRetrain
		tn.mu.Unlock()
		if lastBad != 2 {
			t.Fatalf("hysteresis floor after load = %d, want 2", lastBad)
		}
		if !lastRetrain.Equal(retrainAt) {
			t.Fatalf("retrain clock after load = %v, want %v", lastRetrain, retrainAt)
		}
		mean, samples := tn.ObservedRecall()
		if samples != 7 || mean != 6.3/7 {
			t.Fatalf("recall aggregate after load = (%v, %d), want (%v, 7)", mean, samples, 6.3/7)
		}
	}

	t.Run("into-installed-tuner", func(t *testing.T) {
		snap := saveConverged(t)
		dst := NewSharded(dim, shards, nil)
		tn, err := dst.EnableAdaptive(AutoConfig{RecallTarget: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Load(bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
		checkRestored(t, dst, tn)
	})

	t.Run("load-then-enable", func(t *testing.T) {
		snap := saveConverged(t)
		dst := NewSharded(dim, shards, nil)
		if err := dst.Load(bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
		if dst.Probes() != 4 {
			t.Fatalf("probe budget after load = %d, want 4", dst.Probes())
		}
		// EnableAdaptive must consume the stashed state — and must NOT
		// re-seed the budget to 1 just because a recall target is set: the
		// loaded budget is the converged one.
		tn, err := dst.EnableAdaptive(AutoConfig{RecallTarget: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		checkRestored(t, dst, tn)
		// The stash is consumed exactly once: a replacement controller
		// starts fresh rather than resurrecting stale state.
		dst.DisableAdaptive()
		must(t, dst.SetProbes(0))
		tn2, err := dst.EnableAdaptive(AutoConfig{RecallTarget: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if _, samples := tn2.ObservedRecall(); samples != 0 {
			t.Fatalf("replacement controller inherited %d stale recall samples", samples)
		}
	})
}

// TestLoadRejectsCorruptTrailerWithoutClobbering appends malformed
// serving-state trailers to a valid snapshot: Sharded.Load must reject the
// file before touching store state, and a reader that never reads past
// the snapshot — must keep loading it.
func TestLoadRejectsCorruptTrailerWithoutClobbering(t *testing.T) {
	encode := func(st *tunerState) []byte {
		// One encoder for snapshot plus trailer, exactly as Sharded.Save
		// writes the stream (gob type definitions are sent once per stream).
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(snapshot{Dim: 2, Entries: []Entry{
			{ID: "a", Vector: []float64{1, 2}, Category: "X", Time: t0},
		}}); err != nil {
			t.Fatal(err)
		}
		if st != nil {
			if err := enc.Encode(*st); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	snap := encode(nil)
	trailer := func(st tunerState) []byte { return encode(&st) }
	cases := []struct {
		name string
		file []byte
		want string
	}{
		{"garbage-trailer", append(append([]byte(nil), snap...), "not a gob trailer"...), "trailer"},
		{"version-zero", trailer(tunerState{Version: 0, Probes: 1}), "version"},
		{"negative-probes", trailer(tunerState{Version: 1, Probes: -3}), "negative probe budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := NewSharded(2, 3, nil)
			must(t, sh.Add(entry("keep", "K", []float64{7, 7}, 2)))
			err := sh.Load(bytes.NewReader(tc.file))
			if err == nil {
				t.Fatal("corrupt trailer should fail")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if sh.Len() != 1 {
				t.Fatalf("failed load clobbered the store (len %d)", sh.Len())
			}
			if _, ok := sh.Get("keep"); !ok {
				t.Fatal("failed load dropped existing entry")
			}
			// A reader that stops at the snapshot (the reference store) still
			// loads the same bytes: trailer corruption cannot strand a file.
			db := newRef(2)
			if err := db.Load(bytes.NewReader(tc.file)); err != nil {
				t.Fatalf("flat load of trailing-garbage file: %v", err)
			}
			if db.Len() != 1 {
				t.Fatalf("flat load got %d entries", db.Len())
			}
		})
	}
}
