package vectordb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
)

// TestAutoConfigValidation: malformed adaptive configs must be rejected
// before a controller installs.
func TestAutoConfigValidation(t *testing.T) {
	sh := NewSharded(4, 4, nil)
	bad := []AutoConfig{
		{},                                 // enables nothing
		{RecallTarget: 1.5},                // target out of range
		{RecallTarget: -0.1},               // target out of range
		{RecallTarget: 0.9, ShadowRate: 2}, // rate out of range
		{RetrainSkew: 0.5},                 // a sub-1 max/mean ratio
		{RecallTarget: 0.9, MinRetrainInterval: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := sh.EnableAdaptive(cfg); err == nil {
			t.Fatalf("case %d: EnableAdaptive(%+v) must fail", i, cfg)
		}
	}
	if sh.AdaptiveTuner() != nil {
		t.Fatal("rejected configs must not install a tuner")
	}
	tn, err := sh.EnableAdaptive(AutoConfig{RecallTarget: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if sh.AdaptiveTuner() != tn {
		t.Fatal("AdaptiveTuner must return the installed controller")
	}
	if sh.Probes() != 1 {
		t.Fatalf("enabling the recall tuner must seed probes=1, got %d", sh.Probes())
	}
	sh.DisableAdaptive()
	if sh.AdaptiveTuner() != nil {
		t.Fatal("DisableAdaptive must remove the controller")
	}
}

// twoBlobStore builds a 4-shard IVF store over two point-blobs (each
// blob's entries share one vector, so k-means cannot split a blob and
// exactly 2 partitions populate) plus its reference-store oracle. Queries
// midway-but-nearer-to-A have their true top-8 spanning both blobs:
// probes=1 yields recall 0.5, probes=2 covers every populated partition
// and falls back to exact.
func twoBlobStore(t *testing.T) (*refStore, *Sharded, []float64) {
	t.Helper()
	const dim = 2
	flat := newRef(dim)
	sh := NewSharded(dim, 4, nil)
	for i := 0; i < 4; i++ {
		a := entry(fmt.Sprintf("A-%d", i), "cat-a", []float64{0, 0}, 0)
		b := entry(fmt.Sprintf("B-%d", i), "cat-b", []float64{10, 0}, 0)
		must(t, flat.Add(a))
		must(t, flat.Add(b))
		must(t, sh.Add(a))
		must(t, sh.Add(b))
	}
	if err := sh.TrainIVF(0); err != nil {
		t.Fatal(err)
	}
	populated := 0
	for _, l := range sh.ShardLens() {
		if l > 0 {
			populated++
		}
	}
	if populated != 2 {
		t.Fatalf("fixture expects 2 populated partitions, got lens %v", sh.ShardLens())
	}
	return flat, sh, []float64{4, 0}
}

// TestTunerGrowsToHoldSLO: at probes=1 only one blob is searched and
// observed recall@8 is ~0.5, far below the 0.9 target; the controller
// must grow the budget until the SLO holds (here probes=2 covers every
// populated partition, i.e. exact serving).
func TestTunerGrowsToHoldSLO(t *testing.T) {
	flat, sh, q := twoBlobStore(t)
	tn, err := sh.EnableAdaptive(AutoConfig{RecallTarget: 0.9, ShadowRate: 1, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Probes() != 1 {
		t.Fatalf("controller must seed probes=1, got %d", sh.Probes())
	}
	for i := 0; i < 30 && sh.Probes() < 2; i++ {
		if _, err := topK(sh, q, t0, 8, 0.3); err != nil {
			t.Fatal(err)
		}
		tn.Quiesce() // land each shadow sample deterministically
	}
	if got := sh.Probes(); got != 2 {
		t.Fatalf("controller converged to probes=%d, want 2", got)
	}
	if tn.Shadows() == 0 {
		t.Fatal("no shadow queries ran")
	}
	// At probes=2 every populated partition is covered: serving is exact
	// and must stay bit-identical to the reference store.
	got, err := topK(sh, q, t0, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topK(flat, q, t0, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	sameScored(t, "post-convergence exact", got, want)
}

// TestTunerShrinksOverProvisioned: a budget far above what the SLO needs
// must shrink back down on the free recall=1 samples exact fallback
// serving produces (probes >= populated partitions never degrades, so
// every sample is perfect until the budget drops into probe range).
func TestTunerShrinksOverProvisioned(t *testing.T) {
	_, sh, q := twoBlobStore(t)
	must(t, sh.SetProbes(3)) // over-provisioned: >= the 2 populated partitions
	tn, err := sh.EnableAdaptive(AutoConfig{RecallTarget: 0.4, ShadowRate: 1, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40 && sh.Probes() > 1; i++ {
		if _, err := topK(sh, q, t0, 8, 0.3); err != nil {
			t.Fatal(err)
		}
		tn.Quiesce()
	}
	// Target 0.4: probes=1 serves recall ~0.5 >= target, so the controller
	// should settle at the cheapest budget.
	if got := sh.Probes(); got != 1 {
		t.Fatalf("controller stuck at probes=%d, want shrink to 1", got)
	}
}

// TestTunerHysteresis: once a budget has been observed missing the
// target, the shrink path must not step back onto it — the controller
// oscillating between a failing and a passing budget would periodically
// serve below-SLO results by design.
func TestTunerHysteresis(t *testing.T) {
	_, sh, q := twoBlobStore(t)
	tn, err := sh.EnableAdaptive(AutoConfig{RecallTarget: 0.9, ShadowRate: 1, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Converge up to 2, then keep serving perfect recall for many windows:
	// the budget must hold at 2, never dipping back to the failing 1.
	for i := 0; i < 60; i++ {
		if _, err := topK(sh, q, t0, 8, 0.3); err != nil {
			t.Fatal(err)
		}
		tn.Quiesce()
		if p := sh.Probes(); i > 30 && p != 2 {
			t.Fatalf("iteration %d: probes=%d after convergence, want steady 2", i, p)
		}
	}
}

// TestSetProbesOverridesTuner: SetProbes is the manual override — it pins
// the budget and pauses the controller until EnableAdaptive reinstalls
// one.
func TestSetProbesOverridesTuner(t *testing.T) {
	_, sh, q := twoBlobStore(t)
	tn, err := sh.EnableAdaptive(AutoConfig{RecallTarget: 0.9, ShadowRate: 1, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	must(t, sh.SetProbes(1))
	if !tn.Paused() {
		t.Fatal("SetProbes must pause the controller")
	}
	for i := 0; i < 20; i++ {
		if _, err := topK(sh, q, t0, 8, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	tn.Quiesce()
	if got := sh.Probes(); got != 1 {
		t.Fatalf("paused controller changed the pinned budget to %d", got)
	}
	// Re-enabling hands the budget back to a fresh controller.
	tn2, err := sh.EnableAdaptive(AutoConfig{RecallTarget: 0.9, ShadowRate: 1, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tn2.Paused() {
		t.Fatal("EnableAdaptive must install an un-paused controller")
	}
	for i := 0; i < 20 && sh.Probes() < 2; i++ {
		if _, err := topK(sh, q, t0, 8, 0.3); err != nil {
			t.Fatal(err)
		}
		tn2.Quiesce()
	}
	if got := sh.Probes(); got != 2 {
		t.Fatalf("re-enabled controller converged to probes=%d, want 2", got)
	}
}

// TestSkewTriggeredRetrain: a stream of inserts that lands wholly in one
// partition must trip the imbalance trigger and retrain the quantizer
// automatically; a second burst inside the rate-limit window must NOT
// retrain again until the (injected) clock advances.
func TestSkewTriggeredRetrain(t *testing.T) {
	const dim = 2
	sh := NewSharded(dim, 4, nil)
	now := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	var clockMu sync.Mutex
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	// Seed two blobs and train, so the store routes by IVF before the
	// skewed stream arrives.
	for i := 0; i < 8; i++ {
		v := []float64{0, float64(i)}
		if i%2 == 0 {
			v = []float64{40, float64(i)}
		}
		must(t, sh.Add(entry(fmt.Sprintf("seed-%d", i), "cat", v, 0)))
	}
	if err := sh.TrainIVF(0); err != nil {
		t.Fatal(err)
	}
	tn, err := sh.EnableAdaptive(AutoConfig{
		RetrainSkew:        1.8,
		RetrainCheckEvery:  4,
		MinRetrainInterval: time.Minute,
		Now:                clock,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Burst 1: 40 entries in one far-off region — they all route to one
	// partition, so max/mean skew blows past 1.8.
	for i := 0; i < 40; i++ {
		must(t, sh.Add(entry(fmt.Sprintf("b1-%d", i), "cat", []float64{40, float64(i)}, 0)))
	}
	tn.Quiesce()
	if got := tn.Retrains(); got != 1 {
		t.Fatalf("Retrains = %d after skewed burst, want 1", got)
	}

	// Burst 2 within the rate-limit window: skew again, but no retrain.
	for i := 0; i < 40; i++ {
		must(t, sh.Add(entry(fmt.Sprintf("b2-%d", i), "cat", []float64{-40, float64(i)}, 0)))
	}
	tn.Quiesce()
	if got := tn.Retrains(); got != 1 {
		t.Fatalf("Retrains = %d inside the rate-limit window, want still 1", got)
	}

	// Clock past the interval: the next checked Add may retrain again.
	clockMu.Lock()
	now = now.Add(2 * time.Minute)
	clockMu.Unlock()
	for i := 0; i < 40; i++ {
		must(t, sh.Add(entry(fmt.Sprintf("b3-%d", i), "cat", []float64{-40, 100 + float64(i)}, 0)))
	}
	tn.Quiesce()
	if got := tn.Retrains(); got != 2 {
		t.Fatalf("Retrains = %d after the rate limit elapsed, want 2", got)
	}
	// The retrained quantizer must leave the store exact-correct: full
	// fan-out against a rebuilt reference store.
	flat := newRef(dim)
	for _, e := range sh.snapshotSortedByID() {
		must(t, flat.Add(e))
	}
	must(t, sh.SetProbes(0))
	queryGrid(t, "post-auto-retrain", flat, sh, 5, sh.Len(), dim)
}

// TestAdaptiveTunerHammer is the race hammer from the satellite
// checklist: concurrent Add (tripping skew checks and auto-retrains) +
// TopK/TopKDiverse (tripping shadow sampling and budget adjustments) +
// explicit TrainIVF, all with the adaptive controller live. Run under
// -race it proves the locking; after quiesce, Len and the ID set must
// show no dropped or duplicated entries and the effective probe count
// must sit within [1, shards].
func TestAdaptiveTunerHammer(t *testing.T) {
	const dim, shards, writers, readers, perG = 4, 6, 4, 4, 150
	sh := NewSharded(dim, shards, nil)
	at := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		must(t, sh.Add(Entry{
			ID:       fmt.Sprintf("SEED-%04d", i),
			Vector:   []float64{float64(i % 9), float64(i % 4), 1, 2},
			Category: "cat-seed",
			Time:     at,
		}))
	}
	if err := sh.TrainIVF(0); err != nil {
		t.Fatal(err)
	}
	tn, err := sh.EnableAdaptive(AutoConfig{
		RecallTarget:      0.95,
		ShadowRate:        1,
		Window:            4,
		RetrainSkew:       1.2,
		RetrainCheckEvery: 16,
		// Zero-interval rate limiting: every skew check may retrain, the
		// most hostile schedule for the generation handoff.
		MinRetrainInterval: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				err := sh.Add(Entry{
					ID: fmt.Sprintf("W%d-%04d", w, i),
					// Drifting positions, so skew checks see both imbalance
					// and centroid drift as the hammer runs.
					Vector:   []float64{float64(i%7) * 3, float64(w * i % 11), float64(i % 3), 0},
					Category: incident.Category(fmt.Sprintf("cat-%d", i%5)),
					Time:     at.AddDate(0, 0, i%40),
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
				if _, err := topK(sh, q, at.AddDate(0, 0, i%40), 5, 0.3); err != nil {
					t.Error(err)
					return
				}
				if _, err := topKDiverse(sh, q, at, 5, 0.3); err != nil {
					t.Error(err)
					return
				}
				sh.Probes()
				sh.ShardLens()
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := sh.TrainIVF(2); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	tn.Quiesce()

	wantLen := 20 + writers*perG
	if got := sh.Len(); got != wantLen {
		t.Fatalf("Len = %d after hammer, want %d", got, wantLen)
	}
	for i := 0; i < 20; i++ {
		if _, ok := sh.Get(fmt.Sprintf("SEED-%04d", i)); !ok {
			t.Fatalf("seed entry %d lost", i)
		}
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perG; i++ {
			if _, ok := sh.Get(fmt.Sprintf("W%d-%04d", w, i)); !ok {
				t.Fatalf("entry W%d-%04d lost", w, i)
			}
		}
	}
	if p := sh.Probes(); p < 1 || p > shards {
		t.Fatalf("effective probe count %d outside [1, %d]", p, shards)
	}
	// The store must still agree exactly with a flat rebuild once probing
	// is manually overridden off.
	flat := newRef(dim)
	for _, e := range sh.snapshotSortedByID() {
		must(t, flat.Add(e))
	}
	must(t, sh.SetProbes(0))
	queryGrid(t, "post-hammer", flat, sh, 9, sh.Len(), dim)
}

// TestProbeAutoTuneProperty is the seeded property test: across
// randomized corpora, shard counts, and probe budgets, (1) exact mode
// stays bit-identical to the reference store, (2) static probe-limited
// serving keeps recall above a lenient floor on clustered data, and
// (3) the auto-tuner converges to hold its SLO, after which a manual
// SetProbes(0) restores bit-identity (override semantics).
func TestProbeAutoTuneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for round := 0; round < 6; round++ {
		seed := rng.Int63n(1 << 30)
		n := 200 + rng.Intn(400)
		dim := []int{4, 8, 16}[rng.Intn(3)]
		clusters := 2 + rng.Intn(5)
		shards := 2 + rng.Intn(9)
		probes := 1 + rng.Intn(shards)
		name := fmt.Sprintf("round=%d seed=%d n=%d dim=%d clusters=%d shards=%d probes=%d",
			round, seed, n, dim, clusters, shards, probes)

		entries, queries := clusteredCorpus(seed, n, dim, clusters)
		qt := entries[0].Time
		flat := newRef(dim)
		sh := NewSharded(dim, shards, nil)
		for _, e := range entries {
			must(t, flat.Add(e))
			must(t, sh.Add(e))
		}
		if err := sh.TrainIVF(0); err != nil {
			t.Fatal(err)
		}

		// (1) Exact mode: bit-identical at any shard count.
		queryGrid(t, name+" exact", flat, sh, seed, n, dim)

		// (2) Static probe budget: approximate but never catastrophic on
		// clustered data (cluster-drawn queries, probes >= 1).
		must(t, sh.SetProbes(probes))
		if r := recallAtK(t, flat, sh, queries, qt, 5, 0.3); r < 0.5 {
			t.Fatalf("%s: static recall@5 = %.4f, below the 0.5 property floor", name, r)
		}

		// (3) Auto-tune: the controller must end up holding its target —
		// it grows until the SLO is met or probes cover every populated
		// partition (exact serving, recall 1 by construction). The budget
		// legitimately explores downward once per hysteresis level, so a
		// pass may catch it mid-exploration; require one clean pass at or
		// above target within a bounded number of rounds.
		const target = 0.9
		tn, err := sh.EnableAdaptive(AutoConfig{RecallTarget: target, ShadowRate: 1, Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		converged := false
		var lastRecall float64
		for pass := 0; pass < 3*shards+4 && !converged; pass++ {
			lastRecall = recallAtK(t, flat, sh, queries, qt, 5, 0.3)
			tn.Quiesce()
			converged = lastRecall >= target
			if p := sh.Probes(); p < 1 || p > shards {
				t.Fatalf("%s: probe count %d outside [1, %d]", name, p, shards)
			}
		}
		if !converged {
			t.Fatalf("%s: auto-tuned recall@5 never reached the %.2f SLO (last %.4f at probes=%d)",
				name, target, lastRecall, sh.Probes())
		}

		// Manual override back to exact: bit-identity must return.
		must(t, sh.SetProbes(0))
		queryGrid(t, name+" override-exact", flat, sh, seed, n, dim)
	}
}

// TestObservedRecall: the tuner must report the running mean of every
// shadow-measured recall sample — the /metrics recall gauge — across
// window resets, and (0, 0) before any shadow lands.
func TestObservedRecall(t *testing.T) {
	sh := NewSharded(2, 4, nil)
	tn, err := sh.EnableAdaptive(AutoConfig{RecallTarget: 0.9, ShadowRate: 1, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mean, n := tn.ObservedRecall(); mean != 0 || n != 0 {
		t.Fatalf("ObservedRecall before samples = %v, %d", mean, n)
	}
	// Feed samples straight into the controller; the mean must span
	// window boundaries (Window=2), not reset with them.
	for _, r := range []float64{1, 0.5, 0.5, 1} {
		tn.observe(r)
	}
	mean, n := tn.ObservedRecall()
	if n != 4 {
		t.Fatalf("samples = %d, want 4", n)
	}
	if mean != 0.75 {
		t.Fatalf("mean = %v, want 0.75", mean)
	}
}

// TestObservedRecallFromLiveShadows: end to end through TopK — with
// ShadowRate 1 every probed query is shadowed, so samples accumulate and
// the mean lands in [0, 1].
func TestObservedRecallFromLiveShadows(t *testing.T) {
	_, sh, q := twoBlobStore(t)
	tn, err := sh.EnableAdaptive(AutoConfig{RecallTarget: 0.5, ShadowRate: 1, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := topK(sh, q, time.Time{}, 8, 0); err != nil {
			t.Fatal(err)
		}
	}
	tn.Quiesce()
	mean, n := tn.ObservedRecall()
	if n == 0 {
		t.Fatal("no recall samples after shadowed queries")
	}
	if mean < 0 || mean > 1 {
		t.Fatalf("mean recall = %v", mean)
	}
	if tn.Shadows() != n {
		t.Fatalf("Shadows() = %d, samples = %d", tn.Shadows(), n)
	}
}
