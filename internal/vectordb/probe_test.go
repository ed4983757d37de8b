package vectordb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// clusteredCorpus builds a deterministic corpus with genuine neighbourhood
// structure — numClusters Gaussian-ish blobs on a seeded layout — so an
// IVF quantizer can learn partitions that capture neighbourhoods and
// probe-limited search has meaningful recall. All entries share one
// timestamp: the temporal-decay factor then cancels across entries and
// the ranking is purely geometric, which is what the probe recall floor
// pins (probe selection cannot see time; see the package comment).
func clusteredCorpus(seed int64, n, dim, numClusters int) ([]Entry, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, numClusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = rng.Float64() * 20
		}
	}
	at := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	entries := make([]Entry, n)
	for i := range entries {
		c := centers[rng.Intn(numClusters)]
		v := make([]float64, dim)
		for j := range v {
			v[j] = c[j] + rng.NormFloat64()*0.8
		}
		entries[i] = Entry{
			ID:       fmt.Sprintf("INC-%06d", i),
			Vector:   v,
			Category: "cat-0",
			Time:     at,
		}
	}
	queries := make([][]float64, 100)
	for q := range queries {
		c := centers[rng.Intn(numClusters)]
		v := make([]float64, dim)
		for j := range v {
			v[j] = c[j] + rng.NormFloat64()*0.8
		}
		queries[q] = v
	}
	return entries, queries
}

// timeSpreadCorpus builds a corpus whose timestamps span the temporal-decay
// horizon with recency anti-correlated with proximity — the workload where
// distance-only probe ranking fails and time-aware ranking recovers. It
// lays out `pairs` spatial cluster pairs: each pair has an "old" blob
// (timestamps ~60 days before the query time, decayed to irrelevance at
// alpha 0.3) and a "recent" blob (within the last two days) offset a fixed
// distance away. Queries land between the two blobs but nearer the OLD
// one, so the true temporal-decay top-k comes from the recent blob while
// the nearest centroid is the old blob's: a probe ranking that only sees
// centroid distance probes the wrong partition.
func timeSpreadCorpus(seed int64, n, dim, pairs int) (entries []Entry, queries [][]float64, qt time.Time) {
	rng := rand.New(rand.NewSource(seed))
	qt = time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	const sep = 8.0   // old->recent center offset; >> noise norm so IVF separates the blobs
	const sigma = 0.3 // per-coordinate blob noise
	type pair struct{ oldC, newC, dir []float64 }
	ps := make([]pair, pairs)
	for i := range ps {
		c := make([]float64, dim)
		for j := range c {
			c[j] = rng.Float64() * 20
		}
		dir := make([]float64, dim)
		var norm float64
		for j := range dir {
			dir[j] = rng.NormFloat64()
			norm += dir[j] * dir[j]
		}
		norm = math.Sqrt(norm)
		newC := make([]float64, dim)
		for j := range dir {
			dir[j] /= norm
			newC[j] = c[j] + sep*dir[j]
		}
		ps[i] = pair{oldC: c, newC: newC, dir: dir}
	}
	entries = make([]Entry, n)
	for i := range entries {
		p := ps[rng.Intn(pairs)]
		center, age := p.oldC, 58+rng.Intn(4) // old blob: ~60 days stale
		if rng.Intn(2) == 0 {
			center, age = p.newC, rng.Intn(2) // recent blob: fresh
		}
		v := make([]float64, dim)
		for j := range v {
			v[j] = center[j] + rng.NormFloat64()*sigma
		}
		entries[i] = Entry{
			ID:       fmt.Sprintf("INC-%06d", i),
			Vector:   v,
			Category: "cat-0",
			Time:     qt.AddDate(0, 0, -age),
		}
	}
	queries = make([][]float64, 100)
	for q := range queries {
		p := ps[rng.Intn(pairs)]
		v := make([]float64, dim)
		for j := range v {
			// 35% of the way from the old blob toward the recent one:
			// nearer the old centroid, but the decayed old entries lose to
			// the recent ones under the similarity.
			v[j] = p.oldC[j] + 0.35*sep*p.dir[j] + rng.NormFloat64()*sigma
		}
		queries[q] = v
	}
	return entries, queries, qt
}

// recallAtK measures |approx ∩ exact| / |exact| averaged over queries.
func recallAtK(t testing.TB, exact, approx Index, queries [][]float64, qt time.Time, k int, alpha float64) float64 {
	return recallOf(t, exact, approx, queries, Query{Time: qt, K: k, Alpha: alpha})
}

// recallOf is recallAtK over one-query searches shaped by tmpl (its
// Vector replaced by each query vector in turn).
func recallOf(t testing.TB, exact, approx Index, queries [][]float64, tmpl Query) float64 {
	t.Helper()
	var hit, total int
	for _, q := range queries {
		tmpl.Vector = q
		want, err := search1(exact, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		got, err := search1(approx, tmpl)
		if err != nil {
			t.Fatal(err)
		}
		ids := make(map[string]bool, len(got))
		for _, sc := range got {
			ids[sc.Entry.ID] = true
		}
		for _, sc := range want {
			total++
			if ids[sc.Entry.ID] {
				hit++
			}
		}
	}
	if total == 0 {
		t.Fatal("recall over empty result sets")
	}
	return float64(hit) / float64(total)
}

// TestProbeRecallFloor is the probe-mode golden from the acceptance
// criteria: on the deterministic seeded 10k-entry clustered corpus, an
// 8-shard IVF store probing only 2 partitions must keep recall@5 >= 0.9
// against the reference store. The same floor is enforced on every
// CI bench run by BenchmarkTopKProbes.
func TestProbeRecallFloor(t *testing.T) {
	const n, dim, shards, probes, k = 10_000, 32, 8, 2, 5
	entries, queries := clusteredCorpus(99, n, dim, 12)
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
	must(t, sh.SetProbes(probes))

	recall := recallAtK(t, flat, sh, queries, qt, k, 0.3)
	t.Logf("recall@%d at probes=%d/%d shards: %.4f", k, probes, shards, recall)
	if recall < 0.9 {
		t.Fatalf("recall@%d = %.4f, below the pinned 0.9 floor", k, recall)
	}
}

// TestProbeFallsBackExact pins every documented exact-fallback condition:
// probes <= 0, probes >= shards, probes covering all non-empty shards,
// and a category-hash partitioner. In each, probe-configured results must
// be bit-identical to the reference store.
func TestProbeFallsBackExact(t *testing.T) {
	const seed, n, dim, numCats = 21, 300, 6, 12
	flat := newRef(dim)
	fillIndex(t, flat, seed, n, dim, numCats)

	cases := []struct {
		name   string
		probes int
		ivf    bool
	}{
		{"zero-probes-ivf", 0, true},
		{"probes-equal-shards-ivf", 7, true},
		{"probes-above-shards-ivf", 99, true},
		{"category-hash-ignores-probes", 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := NewSharded(dim, 7, nil)
			fillIndex(t, sh, seed, n, dim, numCats)
			if tc.ivf {
				if err := sh.TrainIVF(0); err != nil {
					t.Fatal(err)
				}
			}
			must(t, sh.SetProbes(tc.probes))
			queryGrid(t, tc.name, flat, sh, seed, n, dim)
		})
	}
}

// TestSetProbesValidation: negative budgets are a caller bug and must be
// rejected loudly, never silently degraded to exact.
func TestSetProbesValidation(t *testing.T) {
	sh := NewSharded(2, 4, nil)
	if err := sh.SetProbes(-1); err == nil {
		t.Fatal("SetProbes(-1) must fail")
	}
	if sh.Probes() != 0 {
		t.Fatalf("rejected SetProbes changed the budget to %d", sh.Probes())
	}
	must(t, sh.SetProbes(3))
	if sh.Probes() != 3 {
		t.Fatalf("Probes = %d, want 3", sh.Probes())
	}
	must(t, sh.SetProbes(0))
	if sh.Probes() != 0 {
		t.Fatal("SetProbes(0) must restore exact fan-out")
	}
}

// TestProbeSkipsEmptyPartitions: with more shards than distinct vectors,
// TrainIVF leaves duplicate centroids whose higher-indexed shards stay
// empty. Probe routing must spend its budget on populated partitions
// only — here every entry sits in one cluster, so probes=1 must still
// find the true neighbours instead of scanning an empty partition whose
// (duplicated) centroid ranks first by tie-break.
func TestProbeSkipsEmptyPartitions(t *testing.T) {
	const dim = 3
	sh := NewSharded(dim, 6, nil)
	flat := newRef(dim)
	// Two distinct vector values across 8 entries -> at most 2 populated
	// IVF partitions, 4+ empty ones.
	for i := 0; i < 8; i++ {
		v := []float64{1, 1, 1}
		if i%2 == 0 {
			v = []float64{9, 9, 9}
		}
		e := entry(fmt.Sprintf("INC-%d", i), "cat-0", v, 0)
		must(t, sh.Add(e))
		must(t, flat.Add(e))
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
	if populated > 2 {
		t.Fatalf("expected <= 2 populated partitions, got lens %v", sh.ShardLens())
	}
	must(t, sh.SetProbes(1))
	got, err := topK(sh, []float64{9, 9, 9}, t0, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topK(flat, []float64{9, 9, 9}, t0, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	// probes=1 against 2 populated partitions: the probed partition is the
	// {9,9,9} cluster, which contains the entire true top-4.
	sameScored(t, "probe-skips-empty", got, want)
}

// TestTimeAwareProbeRanking is the time-aware golden: on the seeded
// time-spread corpus (timestamps spanning the decay horizon, recency
// anti-correlated with proximity), distance-only probe ranking at
// probes=1 probes the stale-but-near partition and misses the true
// neighbours, while the default time-aware ranking recovers them. The
// same floor is enforced on every CI bench run by
// BenchmarkTopKProbesTimeSpread.
func TestTimeAwareProbeRanking(t *testing.T) {
	const n, dim, pairs, shards, k = 2000, 16, 3, 10, 5
	entries, queries, qt := timeSpreadCorpus(8, n, dim, pairs)

	flat := newRef(dim)
	sh := NewSharded(dim, shards, nil)
	for _, e := range entries {
		must(t, flat.Add(e))
		must(t, sh.Add(e))
	}
	if err := sh.TrainIVF(0); err != nil {
		t.Fatal(err)
	}
	must(t, sh.SetProbes(1))

	must(t, sh.SetProbeRanking(ProbeRankDistance))
	distOnly := recallAtK(t, flat, sh, queries, qt, k, 0.3)
	must(t, sh.SetProbeRanking(ProbeRankTimeAware))
	timeAware := recallAtK(t, flat, sh, queries, qt, k, 0.3)

	t.Logf("recall@%d at probes=1: distance-only %.4f, time-aware %.4f", k, distOnly, timeAware)
	if timeAware < 0.9 {
		t.Fatalf("time-aware recall@%d = %.4f, below the pinned 0.9 floor", k, timeAware)
	}
	if timeAware <= distOnly {
		t.Fatalf("time-aware ranking (%.4f) must beat distance-only (%.4f) on the time-spread corpus", timeAware, distOnly)
	}
	if distOnly > 0.5 {
		t.Fatalf("distance-only recall@%d = %.4f; the corpus no longer separates the rankings (want <= 0.5)", k, distOnly)
	}
}

// TestProbeModePrunes proves probe mode actually restricts the search
// (it is approximate, not exact-in-disguise): two well-separated clusters
// under IVF, probes=1, querying midway-but-nearer-to-A must return only
// cluster-A entries even though cluster B holds entries within k.
func TestProbeModePrunes(t *testing.T) {
	const dim = 2
	sh := NewSharded(dim, 2, nil)
	for i := 0; i < 4; i++ {
		must(t, sh.Add(entry(fmt.Sprintf("A-%d", i), "cat-a", []float64{0, float64(i) * 0.1}, 0)))
		must(t, sh.Add(entry(fmt.Sprintf("B-%d", i), "cat-b", []float64{10, float64(i) * 0.1}, 0)))
	}
	if err := sh.TrainIVF(0); err != nil {
		t.Fatal(err)
	}
	must(t, sh.SetProbes(1))
	got, err := topK(sh, []float64{1, 0}, t0, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("probes=1 returned %d entries, want only the 4 in the probed partition", len(got))
	}
	for _, sc := range got {
		if sc.Entry.Category != "cat-a" {
			t.Fatalf("probed partition leaked entry %s", sc.Entry.ID)
		}
	}
	diverse, err := topKDiverse(sh, []float64{1, 0}, t0, 8, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(diverse) != 1 || diverse[0].Entry.Category != "cat-a" {
		t.Fatalf("TopKDiverse under probes=1 = %v, want the single cat-a representative", diverse)
	}
}
