package vectordb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// quantFixture builds a trained, probe-serving sharded store (plus its
// reference twin) on the seeded clustered corpus — the minimal setup on which
// the quantized two-stage scan actually engages.
func quantFixture(t *testing.T, n, dim, shards, probes int) (*refStore, *Sharded, [][]float64, time.Time) {
	t.Helper()
	entries, queries := clusteredCorpus(99, n, dim, 6)
	flat := newRef(dim)
	sh := NewSharded(dim, shards, nil)
	for _, e := range entries {
		must(t, flat.Add(e))
		must(t, sh.Add(e))
	}
	if err := sh.TrainIVF(0); err != nil {
		t.Fatal(err)
	}
	must(t, sh.SetProbes(probes))
	return flat, sh, queries, entries[0].Time
}

// TestQuantizedCoveringMatchesUnquantized: when k×overfetch covers every
// probed shard, the two-stage result must be bit-identical to the
// unquantized probe scan (both are exact search restricted to the probed
// partitions) — for TopK and TopKDiverse.
func TestQuantizedCoveringMatchesUnquantized(t *testing.T) {
	const n, dim, shards, probes, k = 400, 8, 6, 2, 5
	_, sh, queries, qt := quantFixture(t, n, dim, shards, probes)

	// overfetch×k far above any shard's entry count -> full coverage.
	if err := sh.EnableQuantized(n); err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries[:20] {
		gotK, err := topK(sh, q, qt, k, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		gotD, err := topKDiverse(sh, q, qt, k, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		sh.DisableQuantized()
		wantK, err := topK(sh, q, qt, k, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		wantD, err := topKDiverse(sh, q, qt, k, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.EnableQuantized(n); err != nil {
			t.Fatal(err)
		}
		sameScored(t, fmt.Sprintf("covering TopK q%d", qi), gotK, wantK)
		sameScored(t, fmt.Sprintf("covering TopKDiverse q%d", qi), gotD, wantD)
	}
	if sh.QuantizedScans() == 0 {
		t.Fatal("quantized path never engaged on a probe-serving store")
	}
}

// TestQuantizedExactModeBitIdentical: with quantization enabled but probe
// mode off, every query takes exact fan-out over the float backing —
// bit-identical to flat, with zero quantized scans.
func TestQuantizedExactModeBitIdentical(t *testing.T) {
	const seed, n, dim, numCats = 21, 300, 6, 12
	flat := newRef(dim)
	fillIndex(t, flat, seed, n, dim, numCats)
	sh := NewSharded(dim, 7, nil)
	fillIndex(t, sh, seed, n, dim, numCats)
	if err := sh.TrainIVF(0); err != nil {
		t.Fatal(err)
	}
	if err := sh.EnableQuantized(0); err != nil {
		t.Fatal(err)
	}
	queryGrid(t, "quantized-exact", flat, sh, seed, n, dim)
	if sh.QuantizedScans() != 0 {
		t.Fatalf("exact fan-out took the quantized path %d times", sh.QuantizedScans())
	}
}

// TestQuantizedRecallFloor holds the default-overfetch two-stage scan to
// the same recall floor as the unquantized probe benchmarks: recall@5 >=
// 0.9 at probes=2 on the seeded 10k clustered corpus.
func TestQuantizedRecallFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-corpus recall floor: skipped in -short")
	}
	const n, dim, shards, probes, k = 10_000, 32, 8, 2, 5
	flat, sh, queries, qt := quantFixture(t, n, dim, shards, probes)
	if err := sh.EnableQuantized(0); err != nil {
		t.Fatal(err)
	}
	recall := recallAtK(t, flat, sh, queries, qt, k, 0.3)
	t.Logf("quantized recall@%d at probes=%d/%d shards (overfetch %d): %.4f",
		k, probes, shards, sh.Overfetch(), recall)
	if recall < 0.9 {
		t.Fatalf("quantized recall@%d = %.4f, below the pinned 0.9 floor", k, recall)
	}
	if sh.QuantizedScans() == 0 {
		t.Fatal("quantized path never engaged")
	}
}

// TestEnableQuantizedValidation pins the knob semantics: negative
// overfetch is rejected without enabling, 0 selects the default, and
// DisableQuantized turns the stage off.
func TestEnableQuantizedValidation(t *testing.T) {
	sh := NewSharded(2, 4, nil)
	if err := sh.EnableQuantized(-1); err == nil {
		t.Fatal("EnableQuantized(-1) must fail")
	}
	if sh.QuantizedEnabled() {
		t.Fatal("rejected EnableQuantized left the stage on")
	}
	if err := sh.EnableQuantized(0); err != nil {
		t.Fatal(err)
	}
	if !sh.QuantizedEnabled() || sh.Overfetch() != DefaultOverfetch {
		t.Fatalf("enabled=%v overfetch=%d, want enabled with default %d",
			sh.QuantizedEnabled(), sh.Overfetch(), DefaultOverfetch)
	}
	if err := sh.EnableQuantized(7); err != nil {
		t.Fatal(err)
	}
	if sh.Overfetch() != 7 {
		t.Fatalf("Overfetch = %d, want 7", sh.Overfetch())
	}
	sh.DisableQuantized()
	if sh.QuantizedEnabled() {
		t.Fatal("DisableQuantized left the stage on")
	}
}

// TestOverfetchEscalation: the tuner's second knob doubles the candidate
// pool, caps at maxEscalatedOverfetch, and refuses to act with the
// quantized stage off.
func TestOverfetchEscalation(t *testing.T) {
	sh := NewSharded(2, 4, nil)
	if sh.escalateOverfetch() {
		t.Fatal("escalateOverfetch acted with quantization off")
	}
	if err := sh.EnableQuantized(0); err != nil {
		t.Fatal(err)
	}
	for want := 2 * DefaultOverfetch; want <= maxEscalatedOverfetch; want *= 2 {
		if !sh.escalateOverfetch() {
			t.Fatalf("escalateOverfetch stalled below the cap at %d", sh.Overfetch())
		}
		if sh.Overfetch() != want {
			t.Fatalf("Overfetch = %d after escalation, want %d", sh.Overfetch(), want)
		}
	}
	if sh.escalateOverfetch() {
		t.Fatalf("escalateOverfetch exceeded the cap: %d", sh.Overfetch())
	}
	if sh.Overfetch() != maxEscalatedOverfetch {
		t.Fatalf("Overfetch = %d, want the cap %d", sh.Overfetch(), maxEscalatedOverfetch)
	}
}

// quantInSync verifies every current-generation sidecar agrees with its
// shard's contents (codes row-parallel to vecs, one day stamp per entry).
func quantInSync(t *testing.T, s *Sharded, wantSidecars bool) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, sh := range s.gen.shard {
		sh.mu.RLock()
		q, n := sh.quant, len(sh.entries)
		if q == nil {
			sh.mu.RUnlock()
			if wantSidecars {
				t.Fatalf("shard %d has no sidecar", i)
			}
			continue
		}
		if len(q.codes) != n*sh.dim || len(q.days) != n {
			sh.mu.RUnlock()
			t.Fatalf("shard %d sidecar out of sync: %d codes, %d days for %d entries (dim %d)",
				i, len(q.codes), len(q.days), n, sh.dim)
		}
		sh.mu.RUnlock()
	}
}

// TestQuantizedRescaleOnClamp: an insert outside the trained range must
// clamp, schedule an asynchronous rescale, and — once the rescale lands —
// be found by the quantized scan as the top hit.
func TestQuantizedRescaleOnClamp(t *testing.T) {
	const dim = 4
	sh := NewSharded(dim, 4, nil)
	for i := 0; i < 40; i++ {
		base, id := 0.0, fmt.Sprintf("A-%d", i)
		if i%2 == 0 {
			base, id = 10.0, fmt.Sprintf("B-%d", i)
		}
		v := make([]float64, dim)
		for j := range v {
			v[j] = base + float64(i%5)*0.1
		}
		must(t, sh.Add(entry(id, "cat-0", v, 0)))
	}
	if err := sh.TrainIVF(0); err != nil {
		t.Fatal(err)
	}
	must(t, sh.SetProbes(1))
	if err := sh.EnableQuantized(50); err != nil {
		t.Fatal(err)
	}

	// Far outside every trained per-dimension range: the encode must clamp
	// and flag a rescale.
	out := entry("OUT-1", "cat-0", []float64{100, 100, 100, 100}, 0)
	must(t, sh.Add(out))
	sh.quiesceRescales()
	if sh.Rescales() < 1 {
		t.Fatalf("Rescales = %d after an out-of-range insert, want >= 1", sh.Rescales())
	}
	quantInSync(t, sh, true)

	got, err := topK(sh, []float64{100, 100, 100, 100}, t0, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Entry.ID != "OUT-1" {
		t.Fatalf("post-rescale quantized TopK = %+v, want OUT-1", got)
	}
	if sh.QuantizedScans() == 0 {
		t.Fatal("query did not take the quantized path")
	}
}

// TestQuantizedSurvivesTrainIVF: a retrain rebuilds every sidecar from
// the rerouted shard contents, and the covering-equivalence property
// still holds afterwards.
func TestQuantizedSurvivesTrainIVF(t *testing.T) {
	const n, dim, shards, probes, k = 400, 8, 6, 2, 5
	_, sh, queries, qt := quantFixture(t, n, dim, shards, probes)
	if err := sh.EnableQuantized(n); err != nil {
		t.Fatal(err)
	}
	if err := sh.TrainIVF(2); err != nil {
		t.Fatal(err)
	}
	if !sh.QuantizedEnabled() {
		t.Fatal("TrainIVF disabled quantization")
	}
	quantInSync(t, sh, true)
	got, err := topK(sh, queries[0], qt, k, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sh.DisableQuantized()
	want, err := topK(sh, queries[0], qt, k, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "post-retrain covering", got, want)
}

// TestQuantizedLoadRebuildsSidecars: Load never reads sidecars from the
// file — it rebuilds them from the loaded contents when quantization is
// on, and the loaded store serves quantized queries immediately.
func TestQuantizedLoadRebuildsSidecars(t *testing.T) {
	const n, dim, shards, probes, k = 400, 8, 6, 2, 5
	_, sh, queries, qt := quantFixture(t, n, dim, shards, probes)

	var buf bytes.Buffer
	if err := sh.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewSharded(dim, shards, sh.Partitioner())
	if err := dst.EnableQuantized(n); err != nil {
		t.Fatal(err)
	}
	if err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	must(t, dst.SetProbes(probes))
	quantInSync(t, dst, true)
	got, err := topK(dst, queries[0], qt, k, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topK(sh, queries[0], qt, k, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "loaded quantized", got, want)
	if dst.QuantizedScans() == 0 {
		t.Fatal("loaded store did not serve the quantized path")
	}
}

// TestQuantizedConcurrentHammer drives concurrent Adds with escalating
// out-of-range values (forcing clamps and rescales), quantized TopK /
// TopKDiverse queries, retrains, and enable/disable toggles — the
// race-detector workout for the sidecar's locking. Invariants checked at
// the end: entry count, sidecar/backing sync, and exact-mode equivalence
// to a flat rebuild.
func TestQuantizedConcurrentHammer(t *testing.T) {
	const dim, shards, initial, adders, addsPer = 8, 6, 600, 4, 150
	entries, queries := clusteredCorpus(41, initial, dim, 5)
	sh := NewSharded(dim, shards, nil)
	for _, e := range entries {
		must(t, sh.Add(e))
	}
	if err := sh.TrainIVF(0); err != nil {
		t.Fatal(err)
	}
	must(t, sh.SetProbes(2))
	if err := sh.EnableQuantized(0); err != nil {
		t.Fatal(err)
	}

	var addWG sync.WaitGroup
	for a := 0; a < adders; a++ {
		addWG.Add(1)
		go func(a int) {
			defer addWG.Done()
			rng := rand.New(rand.NewSource(int64(1000 + a)))
			for i := 0; i < addsPer; i++ {
				v := make([]float64, dim)
				// Escalating magnitude: later inserts land outside any
				// previously trained range, forcing clamp-and-rescale.
				mag := 1.0 + float64(i)
				for j := range v {
					v[j] = (rng.Float64()*2 - 1) * mag * 30
				}
				e := entry(fmt.Sprintf("H-%d-%d", a, i), "cat-0", v, rng.Intn(40))
				if err := sh.Add(e); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	stop := make(chan struct{})
	var auxWG sync.WaitGroup
	auxWG.Add(1)
	go func() { // querier: runs until the adders finish
		defer auxWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := queries[i%len(queries)]
			if _, err := topK(sh, q, t0, 5, 0.3); err != nil {
				t.Error(err)
				return
			}
			if _, err := topKDiverse(sh, q, t0, 3, 0.3); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	auxWG.Add(1)
	go func() { // retrainer
		defer auxWG.Done()
		for i := 0; i < 3; i++ {
			if err := sh.TrainIVF(0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	auxWG.Add(1)
	go func() { // toggler
		defer auxWG.Done()
		for i := 0; i < 10; i++ {
			sh.DisableQuantized()
			if err := sh.EnableQuantized(0); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	addWG.Wait()
	close(stop)
	auxWG.Wait()
	sh.quiesceRescales()

	want := initial + adders*addsPer
	if sh.Len() != want {
		t.Fatalf("Len = %d after hammer, want %d", sh.Len(), want)
	}
	quantInSync(t, sh, false)

	// Exact fan-out must still match a flat rebuild exactly.
	flat := newRef(dim)
	for _, e := range sh.snapshotSortedByID() {
		must(t, flat.Add(e))
	}
	must(t, sh.SetProbes(0))
	queryGrid(t, "post-hammer", flat, sh, 41, want, dim)
}
