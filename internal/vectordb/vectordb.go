// Package vectordb is the embedding vector store of the prediction stage
// (the "Embedding vector DB" of Figure 4). It stores one entry per
// historical incident — embedding vector, root-cause category, occurrence
// time, and the summarized diagnostic text used as a prompt demonstration —
// and answers nearest-neighbour queries under the paper's temporal-decay
// similarity (§4.2.2):
//
//	Distance(a,b)   = ||a − b||₂
//	Similarity(a,b) = 1/(1 + Distance(a,b)) · e^(−α·|T(a) − T(b)|)
//
// where T is the incident date in days. The decay encodes Insight 2:
// recurring incidents cluster within ~20 days, so a recent incident is a
// far better demonstration than an old one at equal embedding distance.
//
// # One store, one query path
//
// Sharded is the store: entries partitioned across N shards (category-hash
// routing by default, or an IVF-style coarse quantizer trained from the
// stored vectors via Sharded.TrainIVF) with per-shard locks. One shard is
// the flat case; NewIndex builds it whenever Options asks for at most one.
// Every read goes through Index.Search, which serves a slice of Query
// values — each with its own vector, anchor time, k, decay, diversity flag
// and namespace scope — in one pass: shards are scanned on the shared
// internal/parallel pool (inline for small stores), and each scanned
// shard's rows stream once for every query that selected it. The scan
// computes each row's decay e^(−α·Δt) first and skips the distance when
// the decay alone cannot beat the query's current k-th result (or, for a
// diverse query, the row's category best), since the similarity never
// exceeds the decay. Results follow one exact contract — similarity
// descending, ties by ascending entry ID — and are bit-identical for any
// shard count, partitioner, insert interleaving and batch composition; the
// test suite holds them to an independent full-sort reference store.
//
// # Exact vs probe-limited retrieval
//
// The sharded store serves two contracts, chosen by Sharded.SetProbes
// (or Options.Probes):
//
//   - Exact (probes = 0, the default): every query searches every shard
//     and results are BIT-IDENTICAL to a full sort — for any shard count,
//     partitioner, insert interleaving, and even while an incremental
//     Rebalance/TrainIVF is draining shards mid-query. All pipeline
//     goldens assume this mode.
//   - Probe-limited (probes = p > 0, IVF routing): queries search only
//     the p partitions ranked nearest the query, skipping empty
//     partitions. This is approximate — a true neighbour stored in
//     an unprobed partition is missed — in exchange for scanning roughly
//     p/shards of the corpus. Whenever probe mode's preconditions fail —
//     category-hash routing, probes covering every non-empty shard, or a
//     rebalance in flight — queries silently fall back to the exact
//     contract, so approximation is strictly opt-in and never degrades
//     below exact.
//
// # Time-aware probe ranking
//
// Each partition maintains a recency summary (its newest-entry
// timestamp). By default (Sharded.SetProbeRanking, ProbeRankTimeAware)
// probe selection ranks partitions by the similarity's own functional
// form — 1/(1+d)·e^(−α·Δt) — with d the query-to-centroid distance and Δt
// the age of the partition's newest entry, so a partition holding recent
// incidents can out-rank a stale partition whose centroid is nearer;
// under the paper's temporal-decay retrieval that is exactly when the
// true neighbours live in the farther partition. ProbeRankDistance
// restores plain centroid-distance ranking (recall then degrades when
// recency dominates, since centroids carry no timestamp). On a corpus
// whose entries share one timestamp the two rankings coincide.
//
// # Two-stage quantized probe scan (Sharded.EnableQuantized)
//
// The probe-limited path can additionally trade float memory bandwidth
// for an int8 candidate scan. EnableQuantized (Options.Quantized) builds
// a per-shard scalar-quantized sidecar of the columnar backing — one int8
// code per float plus per-dimension scale/offset trained from the shard's
// own value range — and probe-limited queries then run in two stages:
//
//  1. Candidate collection: walk the shard's int8 rows (8× less memory
//     traffic than float64, integer inner loop) and keep the k×overfetch
//     rows with the best approximate similarity (Options.Overfetch;
//     default 4×).
//  2. Re-rank: score only those candidates against the full-precision
//     backing under the exact similarity 1/(1+d)·e^(−α·Δt) and return the
//     best k in the standard retrieval order.
//
// The int8 stage engages exactly when probe-limited serving does — a
// trained IVF partitioner routing, 0 < probes < populated shards, no
// rebalance draining — and never elsewhere: exact fan-out (probes = 0,
// forced-exact shadow queries, mid-rebalance queries) always reads the
// float backing, so exact-mode results stay bit-identical with
// quantization on. Approximate results may differ from the unquantized
// probe scan only within the candidate cut: whenever k×overfetch covers a
// probed shard, its two-stage result is identical to the exact scan of
// that shard (the fuzz oracle pins this).
//
// Sidecars are derived state: rebuilt from shard contents on
// Rebalance/TrainIVF and on Load (never serialized — the snapshot format
// is unchanged), and maintained incrementally on Add. An insert outside
// the trained per-dimension range clamps into it and schedules an
// asynchronous per-shard rescale (at most one in flight per shard), so
// the sidecar self-heals as the value distribution moves; the recall-SLO
// tuner's shadow queries compare the SERVED two-stage results against
// exact fan-out, so its recall target is end-to-end and the controller
// compensates first with probes and then — when the next grow would mean
// full fan-out and the loss is quantization rank noise more probes cannot
// recover — by doubling the overfetch pool (capped at 64×), keeping
// serving probe-limited instead of collapsing to exact.
//
// # Adaptive serving (Sharded.EnableAdaptive)
//
// The serving controller closes the loop on probe quality, so one config
// serves both head and tail queries instead of shipping a hand-picked
// probe count:
//
//   - Recall-SLO auto-tuning: a Tuner samples a configurable fraction of
//     live queries and shadows each sampled probe-limited query with an
//     exact fan-out OFF the hot path — the served result
//     returns immediately; the shadow runs on its own goroutine holding
//     one slot of the shared internal/parallel budget, at most one in
//     flight. Observed recall@k accumulates in a window; each full window
//     moves the effective probe budget one step — below target grows,
//     comfortably above target shrinks, with hysteresis (the controller
//     remembers the last failing budget and will not shrink back onto it
//     until a retrain changes the geometry). Queries that fell back to
//     exact feed free recall=1 samples, which is how the controller
//     discovers it can shrink an over-provisioned budget. Convergence: the
//     budget rises until either the SLO holds or probes cover every
//     populated partition — at which point serving is exact and recall is
//     1 by construction — so the target is always eventually met. With
//     the quantized stage on, the ladder top is handled differently: one
//     step before full fan-out the controller escalates the candidate
//     overfetch instead of growing (see the two-stage section above).
//     SetProbes is the manual override: it pins the budget and pauses the
//     controller until EnableAdaptive is called again.
//   - Skew-triggered retraining: every RetrainCheckEvery-th Add schedules
//     an asynchronous check of shard imbalance (max/mean of ShardLens) and
//     centroid drift (mean centroid distance of each shard's newest rows
//     vs the quantizer's training distortion); when either ratio reaches
//     RetrainSkew, the incremental TrainIVF runs automatically,
//     rate-limited by MinRetrainInterval. Ingest and queries keep flowing
//     throughout — retraining reuses the generation-based online
//     rebalance.
//
// Shadow queries and retrain checks never run while a rebalance drains
// (those queries are exact already), and Tuner.Quiesce is the barrier
// that waits out in-flight shadow/retrain work where determinism matters.
//
// # Namespaces
//
// A namespace is the unit of multi-tenant isolation (the serving layer maps
// one incident team to one namespace). It is a tag on each entry and a
// scope on each query; everything physical — shards, columnar backings,
// worker budget, locks — is shared:
//
//   - Entry.Namespace tags an entry at Add; empty is the DEFAULT namespace.
//   - A Query with Scoped set sees only entries tagged Query.Namespace
//     (Namespace "" meaning the default namespace), bit-identical to a
//     dedicated store holding only that namespace's entries. An unscoped
//     Query sees every entry regardless of tag, which is what keeps every
//     pre-namespace golden bit-identical.
//   - A namespace that holds no entries is not an error: a query scoped to
//     it returns zero hits. Reads never create namespace state; only Add
//     and SetNamespaceProbes (and restoring persisted state) do.
//   - Len, Get, Categories, CountByCategory, Save and Load operate on the
//     whole store; NamespaceStats is the per-namespace inventory.
//
// Each non-default namespace carries its own serving state over the shared
// shard geometry: a probe budget, a quantized overfetch factor, and — when
// adaptive serving is enabled — its own recall-SLO controller with its own
// shadow window, overfetch escalation, and skew/retrain triggers (retrains
// are global, the geometry is shared; the per-namespace controllers just
// decide independently when to ask for one). SetNamespaceProbes is the
// per-tenant manual override; NamespaceStats is the per-tenant metrics
// surface. The default namespace's serving state is the root store's own,
// so single-tenant deployments tune exactly as before.
//
// # Batched execution (Search and Batcher)
//
// Search inverts the query loop: probe selection runs per query, shards
// are visited in the union of the per-query selections, and each selected
// shard's backing — the columnar float rows, or the int8 sidecar on the
// quantized path — streams ONCE for every query that selected it, each
// query keeping its own bounded selection. The scan is memory-bandwidth
// dominated, so the shared row stream amortizes across the batch the way a
// blocked matmul amortizes operand loads. Because each query applies
// exactly its own per-row arithmetic and consumes rows only from shards its
// own budget selected, out[i] is BIT-IDENTICAL to Search of queries[i]
// alone — for exact fan-out, probe-limited, quantized, and mid-rebalance
// serving alike (pinned by goldens and the probe-equivalence fuzz oracle).
//
// Batcher is the serving-side micro-batcher in front of Search: a
// time/size-bounded collector that flushes when maxBatch queries have
// accumulated or the oldest has waited maxWait, whichever comes first. A
// query that arrives while the collector is empty and no other query
// follows immediately is flushed alone, with no timer wait, so idle-traffic
// p50 latency is unchanged and batching engages exactly when concurrency
// makes it profitable.
//
// BenchmarkTopKProbes records the recall-vs-speedup trade-off against the
// exact reference (see BENCH_retrieval.json), and a pinned recall floor
// (recall@5 >= 0.9 at probes=2 on the seeded clustered corpus) guards the
// approximate mode in CI; BenchmarkTopKProbesTimeSpread does the same for
// time-aware ranking and the auto-tuner on a corpus whose timestamps span
// the decay horizon.
//
// # Durability (OpenDurable)
//
// The store is in-memory; Save/Load is an explicit whole-store snapshot.
// OpenDurable wraps any Index in a write-ahead log (internal/wal): adds,
// IVF retrains, serving-state changes, and the feedback loop's
// retry-schedule transitions are journaled as group-committed records,
// recovery replays last-snapshot + log suffix into a staging store
// (truncating at the first torn frame) before swapping it in, and periodic
// compaction checkpoints into the standard snapshot format — trailer
// included — and rotates the log atomically.
// See Durable for the full crash-safety contract; the crash-injection
// matrix (TestDurableCrashMatrix) pins it against the reference store at
// every frame boundary.
package vectordb

import (
	"container/heap"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/incident"
)

// Entry is one stored historical incident.
type Entry struct {
	ID       string
	Vector   []float64
	Category incident.Category
	Time     time.Time
	// Namespace is the tenant tag (the owning team in the serving layer).
	// Empty is the default namespace — the pre-namespace semantics. See the
	// package comment's namespace contract. Gob-additive: snapshots written
	// before this field existed load with every entry in the default
	// namespace.
	Namespace string
	// Summary is the summarized diagnostic text shown as the demonstration
	// body in the Figure 9 prompt.
	Summary string
}

// Query is one retrieval of a Search call. Each query carries its own
// anchor time, k, decay coefficient, diversity flag and namespace scope, so
// one call can mix heterogeneous retrievals (the daemon's micro-batcher
// coalesces whatever arrives).
type Query struct {
	Vector []float64
	Time   time.Time
	K      int
	Alpha  float64
	// Diverse applies the §4.2.2 category-diversity constraint: each
	// category appears at most once among the results.
	Diverse bool
	// Namespace + Scoped pin the query to one namespace: when Scoped is set
	// the query sees only entries tagged Namespace (Namespace = "" meaning
	// the default namespace). Scoped=false (the zero value) is the unscoped
	// query over every entry.
	Namespace string
	Scoped    bool
}

// sees reports whether an entry tagged ns is visible to the query.
func (q *Query) sees(ns string) bool { return !q.Scoped || q.Namespace == ns }

// Scored is a retrieval result.
type Scored struct {
	Entry      Entry
	Distance   float64
	Similarity float64
}

// Index is the retrieval interface the prediction stage works against.
// Implementations are safe for concurrent use and share the exact
// retrieval contract: results ordered by temporal-decay similarity
// descending, ties broken by ascending entry ID.
type Index interface {
	// Dim returns the vector dimensionality.
	Dim() int
	// Len returns the number of stored entries.
	Len() int
	// Add stores an entry, rejecting dimension mismatches and duplicate
	// IDs.
	Add(e Entry) error
	// Get returns the entry with the given ID.
	Get(id string) (Entry, bool)
	// Categories returns the sorted set of distinct categories stored.
	Categories() []incident.Category
	// CountByCategory returns how many stored incidents each category has.
	CountByCategory() map[incident.Category]int
	// Search serves a batch of queries in one pass over the store, out[i]
	// answering queries[i] and bit-identical to searching it alone (see the
	// package comment's batched execution contract). A malformed query
	// fails the whole call.
	Search(queries []Query) ([][]Scored, error)
	// Save serializes the store in the snapshot format.
	Save(w io.Writer) error
	// Load replaces the store contents with a snapshot written by Save.
	Load(r io.Reader) error
}

// Options parameterizes the store NewIndex builds.
type Options struct {
	// Shards partitions the store into this many shards with parallel
	// query fan-out; 0 or 1 builds a single shard.
	Shards int
	// Partitioner overrides shard routing (default: category hash over
	// Shards). A partitioner's own shard count takes precedence over
	// Shards.
	Partitioner Partitioner
	// Probes opts into probe-limited approximate serving: queries search
	// only this many IVF partitions nearest the query (see the package
	// comment's exact-vs-probe contract). 0 keeps exact fan-out; the knob
	// is dormant until an IVF partitioner is routing (Sharded.TrainIVF) and
	// more than Probes shards are populated. Negative values are rejected
	// by Sharded.SetProbes, so validate before constructing Options.
	Probes int
	// RecallTarget enables the recall-SLO auto-tuner: shadow queries
	// measure observed recall@k and the effective probe budget is
	// grown/shrunk to hold this target (see Sharded.EnableAdaptive). 0
	// disables.
	RecallTarget float64
	// ShadowRate is the fraction of live queries the auto-tuner shadows
	// with an exact fan-out (default 0.05 when RecallTarget is set).
	ShadowRate float64
	// RetrainSkew enables skew-triggered IVF retraining when >= 1: once
	// max/mean of the per-shard entry counts — or the centroid-drift ratio
	// of fresh inserts — reaches this value, TrainIVF is kicked
	// automatically, rate-limited. 0 disables.
	RetrainSkew float64
	// Quantized opts into the two-stage int8 probe scan (see the package
	// comment): probe-limited queries collect candidates from a per-shard
	// scalar-quantized sidecar and re-rank them at full precision. Dormant
	// until probe mode engages; exact fan-out is unaffected.
	Quantized bool
	// Overfetch is the candidate factor of the quantized stage: each
	// probed shard keeps k×Overfetch int8-stage candidates for the exact
	// re-rank. 0 selects DefaultOverfetch (4). Only meaningful with
	// Quantized; negative values are rejected by Sharded.EnableQuantized,
	// so validate before constructing Options.
	Overfetch int
}

// NewIndex builds the store the options describe: a Sharded store of
// max(1, Shards) shards (or the partitioner's count), with the probe,
// adaptive and quantized serving modes the options enable.
func NewIndex(dim int, opts Options) Index {
	s := NewSharded(dim, max(1, opts.Shards), opts.Partitioner)
	if opts.Probes > 0 {
		// Cannot fail for positive values; negatives are documented as
		// caller-validated and keep the exact default.
		_ = s.SetProbes(opts.Probes)
	}
	if opts.RecallTarget > 0 || opts.RetrainSkew > 0 {
		// Cannot fail: the only invalid shapes (out-of-range fractions,
		// a sub-1 skew ratio) are documented as caller-validated, and
		// core.Config rejects them before Options is built.
		_, _ = s.EnableAdaptive(AutoConfig{
			RecallTarget: opts.RecallTarget,
			ShadowRate:   opts.ShadowRate,
			RetrainSkew:  opts.RetrainSkew,
		})
	}
	if opts.Quantized {
		// Cannot fail for non-negative Overfetch, which is documented as
		// caller-validated.
		_ = s.EnableQuantized(opts.Overfetch)
	}
	return s
}

// validateEntry checks an entry against the store dimensionality.
func validateEntry(dim int, e Entry) error {
	if len(e.Vector) != dim {
		return fmt.Errorf("vectordb: entry %s has dim %d, store has %d", e.ID, len(e.Vector), dim)
	}
	if e.ID == "" {
		return fmt.Errorf("vectordb: entry has empty ID")
	}
	return nil
}

// countCategoriesInto tallies entries per category into counts. Callers
// hold the lock guarding entries.
func countCategoriesInto(counts map[incident.Category]int, entries []Entry) {
	for _, e := range entries {
		counts[e.Category]++
	}
}

// sortedCategories returns the keys of a category-count map in sorted
// order.
func sortedCategories(counts map[incident.Category]int) []incident.Category {
	out := make([]incident.Category, 0, len(counts))
	for c := range counts {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Distance is the Euclidean distance of the paper's similarity formula.
func Distance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Similarity evaluates the paper's formula for a query (vector, time)
// against an entry, with temporal-decay coefficient alpha per day.
func Similarity(query []float64, qt time.Time, e Entry, alpha float64) (dist, sim float64) {
	return similarityAt(query, qt, e.Vector, e.Time, alpha)
}

// similarityAt is Similarity over a raw (vector, time) pair, so the
// columnar scan can score rows without assembling an Entry.
func similarityAt(query []float64, qt time.Time, vec []float64, et time.Time, alpha float64) (dist, sim float64) {
	dist = Distance(query, vec)
	sim = 1 / (1 + dist) * decayAt(qt, et, alpha)
	return dist, sim
}

// decayAt is the similarity's temporal factor e^(−α·|Δdays|). The scan
// computes it before the distance: since sim = decay/(1+dist) <= decay, a
// row whose decay cannot beat the current threshold skips the distance.
func decayAt(qt, et time.Time, alpha float64) float64 {
	days := math.Abs(qt.Sub(et).Hours()) / 24
	return math.Exp(-alpha * days)
}

// ranksAfter reports whether a ranks strictly after (worse than) b in
// retrieval order: similarity descending, ties broken by older-first ID for
// determinism.
func ranksAfter(a, b Scored) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity < b.Similarity
	}
	return a.Entry.ID > b.Entry.ID
}

// worstFirst is a bounded min-heap over retrieval rank: the root is the
// worst-ranked entry kept so far, so streaming selection evicts it in O(log
// k) when a better candidate arrives.
type worstFirst []Scored

func (h worstFirst) Len() int           { return len(h) }
func (h worstFirst) Less(i, j int) bool { return ranksAfter(h[i], h[j]) }
func (h worstFirst) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *worstFirst) Push(x any)        { *h = append(*h, x.(Scored)) }
func (h *worstFirst) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// offer streams one candidate into the bounded heap of capacity k.
func (h *worstFirst) offer(sc Scored, k int) {
	if len(*h) < k {
		heap.Push(h, sc)
	} else if ranksAfter((*h)[0], sc) {
		(*h)[0] = sc
		heap.Fix(h, 0)
	}
}

// drain empties the heap into a best-first ordered slice.
func (h *worstFirst) drain() []Scored {
	out := make([]Scored, len(*h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Scored)
	}
	return out
}

// checkQuery validates one query's shape.
func checkQuery(dim int, q *Query) error {
	if len(q.Vector) != dim {
		return fmt.Errorf("vectordb: query dim %d, store dim %d", len(q.Vector), dim)
	}
	if q.K <= 0 {
		return fmt.Errorf("vectordb: k must be positive, got %d", q.K)
	}
	return nil
}
