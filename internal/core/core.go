// Package core wires RCACopilot's two stages together (Figure 4): the
// diagnostic-information collection stage (incident parsing, handler
// matching, multi-source collection) and the root-cause prediction stage
// (LLM summarization, embedding, temporal nearest-neighbour retrieval,
// chain-of-thought category prediction with explanation).
//
// # Concurrency
//
// A Copilot is safe for concurrent use: HandleIncident, Collect, Predict,
// Summarize, Learn and LearnBatch may be called from many goroutines at
// once, each on its own incident. Both pipeline stages run unserialized.
// The prediction stage is embarrassingly parallel — the chat client,
// embedder and vector store are either stateless or internally locked — and
// the collection stage executes each handler run on its own execution
// context (transport.Exec): telemetry cost accumulates in a per-run
// accumulator and virtual time advances on a per-run clock view based at
// the incident's creation time, so nothing interleaves across runs. When a
// run finishes, its accumulator merges into the fleet meter and the shared
// virtual clock advances past the run's total cost; both operations
// commute, so fleet-level accounting is deterministic regardless of how
// concurrent collections interleave. SetEmbedder may race with in-flight
// calls only in the trivial sense that each call atomically sees either the
// old or the new retriever; callers are expected to attach the embedder
// before serving traffic.
package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/embed/fasttext"
	"repro/internal/handler"
	"repro/internal/incident"
	"repro/internal/llm"
	"repro/internal/parallel"
	"repro/internal/prompt"
	"repro/internal/timeutil"
	"repro/internal/transport"
	"repro/internal/vectordb"
)

// Embedder maps incident text into the retrieval vector space. The default
// is a FastText model trained on historical incidents (§4.2.1); the GPT-4
// Embed. baseline swaps in the LLM's embedding endpoint. Users may plug in
// their own ("we provide users with the flexibility to customize their
// embedding model").
type Embedder interface {
	Embed(text string) ([]float64, error)
	Dim() int
}

// FastTextEmbedder adapts a trained FastText model. Document vectors are
// unit-normalized and multiplied by Scale: the temporal-decay similarity
// 1/(1+d)·e^(−α·Δt) trades embedding distance against days, so the
// embedding's distance scale decides how many days of recency a semantic
// match is worth. Scale is calibrated so the paper's α = 0.3 sits at the
// retrieval sweet spot (Figure 12).
type FastTextEmbedder struct {
	Model *fasttext.Model
	// Scale defaults to 24 (≈ one unit of cosine distance is worth ~12
	// days of recency at α = 0.3).
	Scale float64
}

// Embed implements Embedder.
func (f FastTextEmbedder) Embed(text string) ([]float64, error) {
	v := f.Model.DocVector(text)
	scale := f.Scale
	if scale == 0 {
		scale = 24
	}
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	if norm > 0 {
		k := scale / math.Sqrt(norm)
		for i := range v {
			v[i] *= k
		}
	}
	return v, nil
}

// Dim implements Embedder.
func (f FastTextEmbedder) Dim() int { return f.Model.Dim() }

// LLMEmbedder adapts an llm.Client's embedding endpoint (GPT-4 Embed.).
type LLMEmbedder struct {
	Client llm.Client
	// EmbedDim must match the client's embedding output width.
	EmbedDim int
}

// Embed implements Embedder.
func (l LLMEmbedder) Embed(text string) ([]float64, error) { return l.Client.Embed(text) }

// Dim implements Embedder.
func (l LLMEmbedder) Dim() int { return l.EmbedDim }

// ContextSources selects which incident information feeds the prediction
// prompt — the paper's Table 3 ablation axes.
type ContextSources struct {
	// AlertInfo includes the alert type and scope block.
	AlertInfo bool
	// DiagnosticInfo includes the collected multi-source diagnostic text.
	DiagnosticInfo bool
	// Summarized replaces raw diagnostic text with its LLM summary
	// (the ✓sum. row of Table 3, RCACopilot's default).
	Summarized bool
	// ActionOutput includes the handler actions' key-value outputs.
	ActionOutput bool
}

// DefaultContext is RCACopilot's shipped configuration: summarized
// diagnostic information only, the best row of Table 3.
func DefaultContext() ContextSources {
	return ContextSources{DiagnosticInfo: true, Summarized: true}
}

// Shard-routing strategies for Config.Partitioner.
const (
	// PartitionCategory routes entries to shards by a hash of their
	// root-cause category (the default).
	PartitionCategory = "category"
	// PartitionIVF routes entries to shards through an IVF-style coarse
	// quantizer trained from the stored vectors after each batch ingest.
	PartitionIVF = "ivf"
)

// Config parameterizes a Copilot.
type Config struct {
	Team string
	// MultiTenant serves each incident's owning team as a tenant over the
	// shared vector store: learned entries are tagged with the incident's
	// OwningTeam as their namespace, Predict's retrieval is scoped to that
	// team's namespace (so a team's demonstrations never come from a
	// co-tenant's history), handler matching tries the owning team's
	// handlers before falling back to Team's, and each collection run's
	// telemetry cost is attributed per tenant ("team/site" meter keys).
	// Off (the default), every entry lands in the default namespace and
	// behavior is bit-identical to the single-tenant system.
	MultiTenant bool
	// K is the number of demonstrations retrieved (default 5, §4.2.2).
	K int
	// Alpha is the temporal-decay coefficient per day (default 0.3).
	Alpha float64
	// Context selects the prompt context sources (default: summarized
	// diagnostic info).
	Context ContextSources
	// PromptReserve keeps headroom for instructions and the completion
	// within the model context window (default 768 tokens).
	PromptReserve int
	// Shards partitions the vector store into this many shards with
	// parallel query fan-out. 0 (unset) defaults to runtime.NumCPU(), so a
	// stock deployment scales with the machine; 1 keeps every entry in one
	// shard. Results are bit-identical for any shard count — sharding
	// changes scaling, not retrieval semantics.
	Shards int
	// Partitioner selects shard routing when Shards > 1:
	// PartitionCategory (default) or PartitionIVF.
	Partitioner string
	// Probes opts retrieval into the sharded store's probe-limited
	// approximate serving: queries search only this many IVF partitions
	// nearest the query instead of fanning out to every shard. Requires
	// Shards > 1 with Partitioner PartitionIVF (rejected otherwise — the
	// knob would silently never engage) and takes effect once the
	// quantizer has trained (until then — and whenever probes cover every
	// populated shard — retrieval stays exact and bit-identical to the
	// unprobed store). 0 keeps exact fan-out; negative values are rejected.
	// Mutually exclusive with RecallTarget, which makes the budget
	// controller-owned.
	Probes int
	// RecallTarget replaces the static Probes knob with the recall-SLO
	// auto-tuner: a ShadowRate fraction of live retrievals is shadowed
	// with an exact fan-out off the hot path, and the effective probe
	// count grows/shrinks to hold this observed recall@k target (e.g.
	// 0.95). Requires Shards > 1 with Partitioner PartitionIVF; must be in
	// (0, 1]. 0 disables. See vectordb.Sharded.EnableAdaptive.
	RecallTarget float64
	// ShadowRate is the fraction of live retrievals the auto-tuner
	// shadows, in (0, 1]; 0 defaults to 0.05. Only meaningful with
	// RecallTarget.
	ShadowRate float64
	// RetrainSkew enables skew-triggered IVF retraining when >= 1: once
	// per-shard imbalance (max/mean of the shard entry counts) or the
	// centroid drift of fresh inserts reaches this ratio, the quantizer
	// retrains automatically (rate-limited, online — ingest and queries
	// keep flowing). Requires Shards > 1 with Partitioner PartitionIVF.
	// 0 disables.
	RetrainSkew float64
	// Quantized enables the two-stage quantized probe scan: probe-limited
	// queries walk a per-shard int8 sidecar to collect K×Overfetch
	// candidates, then re-rank exactly against the full-precision vectors.
	// Requires probe-limited serving to be configured (Probes > 0 or
	// RecallTarget > 0, with Shards > 1 and Partitioner PartitionIVF) —
	// exact fan-out never touches the sidecar, so quantization without a
	// probe budget would silently never engage. See
	// vectordb.Sharded.EnableQuantized.
	Quantized bool
	// Overfetch scales the stage-one candidate pool: each probed shard
	// contributes its K×Overfetch best quantized candidates to the exact
	// re-rank. 0 defaults to vectordb.DefaultOverfetch; negative values
	// are rejected, as is a nonzero Overfetch without Quantized. Only
	// meaningful with Quantized.
	Overfetch int
	// BatchMax enables micro-batched retrieval: concurrent retrieval
	// queries (Retrieve, Predict's neighbour lookup) coalesce through a
	// vectordb.Batcher into batched Search executions of at most this size,
	// amortizing the shard scan across the batch. 0 or 1 disables
	// batching; negative values are rejected. Idle traffic keeps the
	// single-query fast path, so enabling batching does not add latency
	// when there is no concurrency to harvest.
	BatchMax int
	// BatchWait bounds how long a partially filled batch holds its window
	// open for companion queries before flushing. 0 with BatchMax > 1
	// selects the 500µs default; setting it without BatchMax > 1 is
	// rejected (there is no collector to configure).
	BatchWait time.Duration
	// WALDir enables the durable vector store: SetEmbedder opens a
	// write-ahead-logged store rooted at this directory instead of a fresh
	// in-memory one, replaying any previous snapshot + log so a crashed
	// process resumes with its learned history and converged serving
	// state. The embedder attached must reproduce the vector space the
	// logged entries were embedded in (the daemon trains its FastText
	// model deterministically from the corpus, so a reboot gets the same
	// space); a dimension mismatch fails SetEmbedder rather than serving
	// mixed-space vectors. Empty (the default) keeps the in-memory store.
	WALDir string
	// WALSyncEvery is the WAL group-commit size boundary: the append that
	// fills the batch to this many records fsyncs it. 0 defaults to 64;
	// 1 makes every learned entry durable before Learn returns. Requires
	// WALDir.
	WALSyncEvery int
	// WALSyncInterval is the WAL group-commit flush cadence for
	// under-filled batches. 0 defaults to 50ms. Requires WALDir.
	WALSyncInterval time.Duration
	// WALCompactBytes is the log size that triggers snapshot compaction
	// and log rotation. 0 defaults to 4 MiB; negative disables automatic
	// compaction. Requires WALDir.
	WALCompactBytes int64
}

func (c Config) withDefaults() Config {
	if c.Team == "" {
		c.Team = "Transport"
	}
	if c.K <= 0 {
		c.K = 5
	}
	if c.Alpha == 0 {
		c.Alpha = 0.3
	}
	if c.Context == (ContextSources{}) {
		c.Context = DefaultContext()
	}
	if c.PromptReserve <= 0 {
		c.PromptReserve = 768
	}
	if c.Partitioner == "" {
		c.Partitioner = PartitionCategory
	}
	if c.Shards <= 0 {
		c.Shards = runtime.NumCPU()
	}
	if c.BatchMax > 1 && c.BatchWait == 0 {
		c.BatchWait = 500 * time.Microsecond
	}
	return c
}

// Copilot is the assembled RCACopilot system.
type Copilot struct {
	cfg      Config
	fleet    *transport.Fleet
	registry *handler.Registry
	runner   *handler.Runner
	chat     llm.Client
	meter    *timeutil.CostMeter

	// mu guards the retriever state (embedder, db, batcher), which
	// SetEmbedder swaps together; everything else is immutable after New
	// or internally locked.
	mu       sync.RWMutex
	embedder Embedder
	db       vectordb.Index
	// batcher is the micro-batching collector wrapped around db when
	// Config.BatchMax > 1 (then db IS the batcher); nil otherwise.
	batcher *vectordb.Batcher
	// durable is the write-ahead-logged store wrapped by db when
	// Config.WALDir is set (the batcher, if any, wraps the durable store,
	// which wraps the sharded one); nil otherwise.
	durable *vectordb.Durable
	// embedCache memoizes Retrieve's query embeddings (bounded LRU keyed
	// by text); invalidated wholesale on SetEmbedder.
	embedCache *embedCache
}

// New assembles a Copilot over a fleet and a chat model. The embedder (and
// with it the vector store) is attached later via SetEmbedder, once it has
// been trained on historical incidents.
func New(fleet *transport.Fleet, chat llm.Client, cfg Config) (*Copilot, error) {
	if fleet == nil || chat == nil {
		return nil, fmt.Errorf("core: fleet and chat model are required")
	}
	cfg = cfg.withDefaults()
	if cfg.Partitioner != PartitionCategory && cfg.Partitioner != PartitionIVF {
		return nil, fmt.Errorf("core: unknown partitioner %q (want %q or %q)",
			cfg.Partitioner, PartitionCategory, PartitionIVF)
	}
	if cfg.Probes < 0 {
		return nil, fmt.Errorf("core: negative probe count %d (use 0 for exact fan-out)", cfg.Probes)
	}
	if cfg.Probes > 0 && cfg.Shards <= 1 {
		return nil, fmt.Errorf("core: Probes=%d requires a sharded vector store (Shards > 1)", cfg.Probes)
	}
	if cfg.Probes > 0 && cfg.Partitioner != PartitionIVF {
		// Probe selection needs centroid geometry; under category routing
		// the knob would silently never engage, masking a misconfiguration.
		return nil, fmt.Errorf("core: Probes=%d requires Partitioner=%q (got %q, which has no centroids to probe)",
			cfg.Probes, PartitionIVF, cfg.Partitioner)
	}
	if cfg.RecallTarget < 0 || cfg.RecallTarget > 1 {
		return nil, fmt.Errorf("core: RecallTarget %v outside (0, 1]", cfg.RecallTarget)
	}
	if cfg.ShadowRate < 0 || cfg.ShadowRate > 1 {
		return nil, fmt.Errorf("core: ShadowRate %v outside (0, 1]", cfg.ShadowRate)
	}
	if cfg.ShadowRate > 0 && cfg.RecallTarget == 0 {
		return nil, fmt.Errorf("core: ShadowRate=%v without RecallTarget (nothing to tune)", cfg.ShadowRate)
	}
	if cfg.RetrainSkew != 0 && cfg.RetrainSkew < 1 {
		return nil, fmt.Errorf("core: RetrainSkew %v must be 0 (off) or >= 1 (a max/mean ratio)", cfg.RetrainSkew)
	}
	if cfg.RecallTarget > 0 && cfg.Probes > 0 {
		return nil, fmt.Errorf("core: RecallTarget=%v and Probes=%d are mutually exclusive (the auto-tuner owns the probe budget; use vectordb.Sharded.SetProbes for a runtime manual override)",
			cfg.RecallTarget, cfg.Probes)
	}
	if adaptive := cfg.RecallTarget > 0 || cfg.RetrainSkew > 0; adaptive {
		if cfg.Shards <= 1 {
			return nil, fmt.Errorf("core: adaptive serving (RecallTarget/RetrainSkew) requires a sharded vector store (Shards > 1)")
		}
		if cfg.Partitioner != PartitionIVF {
			return nil, fmt.Errorf("core: adaptive serving (RecallTarget/RetrainSkew) requires Partitioner=%q (got %q)",
				PartitionIVF, cfg.Partitioner)
		}
	}
	if cfg.Overfetch < 0 {
		return nil, fmt.Errorf("core: negative Overfetch %d (use 0 for the default)", cfg.Overfetch)
	}
	if cfg.Overfetch > 0 && !cfg.Quantized {
		return nil, fmt.Errorf("core: Overfetch=%d without Quantized (nothing to overfetch)", cfg.Overfetch)
	}
	if cfg.Quantized {
		// The int8 sidecar only serves probe-limited queries: without a
		// probe budget (static or SLO-owned) the flag would silently never
		// engage, masking a misconfiguration.
		if cfg.Probes == 0 && cfg.RecallTarget == 0 {
			return nil, fmt.Errorf("core: Quantized requires probe-limited serving (Probes > 0 or RecallTarget > 0); exact fan-out never uses the sidecar")
		}
		if cfg.Shards <= 1 {
			return nil, fmt.Errorf("core: Quantized requires a sharded vector store (Shards > 1)")
		}
		if cfg.Partitioner != PartitionIVF {
			return nil, fmt.Errorf("core: Quantized requires Partitioner=%q (got %q)", PartitionIVF, cfg.Partitioner)
		}
	}
	if cfg.BatchMax < 0 {
		return nil, fmt.Errorf("core: negative BatchMax %d (use 0 to disable batching)", cfg.BatchMax)
	}
	if cfg.BatchWait < 0 {
		return nil, fmt.Errorf("core: negative BatchWait %v", cfg.BatchWait)
	}
	if cfg.BatchWait > 0 && cfg.BatchMax <= 1 {
		return nil, fmt.Errorf("core: BatchWait=%v without BatchMax > 1 (no batch collector to configure)", cfg.BatchWait)
	}
	if cfg.WALSyncEvery < 0 {
		return nil, fmt.Errorf("core: negative WALSyncEvery %d", cfg.WALSyncEvery)
	}
	if cfg.WALSyncInterval < 0 {
		return nil, fmt.Errorf("core: negative WALSyncInterval %v", cfg.WALSyncInterval)
	}
	if cfg.WALDir == "" && (cfg.WALSyncEvery != 0 || cfg.WALSyncInterval != 0 || cfg.WALCompactBytes != 0) {
		// A durability knob without a WAL directory would silently never
		// engage, masking a misconfiguration.
		return nil, fmt.Errorf("core: WAL tuning (WALSyncEvery/WALSyncInterval/WALCompactBytes) requires WALDir")
	}
	c := &Copilot{
		cfg:        cfg,
		fleet:      fleet,
		registry:   handler.NewRegistry(nil),
		runner:     handler.NewRunner(fleet),
		chat:       chat,
		meter:      timeutil.NewCostMeter(),
		embedCache: newEmbedCache(embedCacheSize),
	}
	if _, err := c.registry.InstallBuiltins(cfg.Team); err != nil {
		return nil, err
	}
	return c, nil
}

// Registry exposes the handler registry (for handler authoring tools).
func (c *Copilot) Registry() *handler.Registry { return c.registry }

// Runner exposes the handler runner (for known-issue administration).
func (c *Copilot) Runner() *handler.Runner { return c.runner }

// Meter returns the accumulated modelled LLM latency (summarization and
// prediction calls). Collection-stage telemetry cost accumulates per run and
// merges into the fleet's meter — see Fleet.Meter.
func (c *Copilot) Meter() *timeutil.CostMeter { return c.meter }

// Chat returns the underlying chat model.
func (c *Copilot) Chat() llm.Client { return c.chat }

// Config returns the effective configuration.
func (c *Copilot) Config() Config { return c.cfg }

// SetEmbedder attaches the retrieval embedder and resets the vector store
// to its dimensionality (sharded per Config.Shards). Resetting is
// deliberate: vectors produced by different embedders are not comparable,
// so every previously learned in-memory entry is DISCARDED and the history
// must be re-learned against the new embedding space. The number of
// dropped entries is returned so callers can detect an accidental
// mid-flight swap (0 on first attachment).
//
// With Config.WALDir set, the fresh store is write-ahead logged: the
// directory's snapshot + log replay into it before it starts serving, so
// a reboot resumes with the learned history and converged serving state —
// the embedder must therefore reproduce the logged vector space (see
// Config.WALDir). A recovery failure is returned and the previous
// retriever stays attached; the previous durable store, if any, is closed
// first either way (two writers on one log would corrupt it).
func (c *Copilot) SetEmbedder(e Embedder) (dropped int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.durable != nil {
		c.durable.Close()
		c.durable = nil
	}
	// PartitionIVF also starts on category-hash routing: the quantizer can
	// only be trained once vectors exist (see trainPartitioner); the probe
	// budget — static or auto-tuned — is likewise dormant until the IVF
	// quantizer routes.
	opts := vectordb.Options{
		Shards:       c.cfg.Shards,
		Probes:       c.cfg.Probes,
		RecallTarget: c.cfg.RecallTarget,
		ShadowRate:   c.cfg.ShadowRate,
		RetrainSkew:  c.cfg.RetrainSkew,
		Quantized:    c.cfg.Quantized,
		Overfetch:    c.cfg.Overfetch,
	}
	dim := e.Dim()
	var db vectordb.Index
	var durable *vectordb.Durable
	if c.cfg.WALDir != "" {
		durable, err = vectordb.OpenDurable(c.cfg.WALDir,
			func() vectordb.Index { return vectordb.NewIndex(dim, opts) },
			vectordb.DurableOptions{
				SyncEvery:    c.cfg.WALSyncEvery,
				SyncInterval: c.cfg.WALSyncInterval,
				CompactBytes: c.cfg.WALCompactBytes,
			})
		if err != nil {
			return 0, err
		}
		db = durable
	} else {
		db = vectordb.NewIndex(dim, opts)
	}
	if c.db != nil {
		dropped = c.db.Len()
	}
	if c.batcher != nil {
		c.batcher.Close()
		c.batcher = nil
	}
	c.embedder = e
	// Cached query embeddings belong to the outgoing embedder's vector
	// space; drop them with the store.
	c.embedCache.clear()
	c.db, c.durable = db, durable
	if c.cfg.BatchMax > 1 {
		// Cannot fail: New validated BatchMax >= 2 and withDefaults set a
		// positive BatchWait.
		b, _ := vectordb.NewBatcher(c.db, c.cfg.BatchMax, c.cfg.BatchWait)
		c.batcher, c.db = b, b
	}
	return dropped, nil
}

// Durable returns the write-ahead-logged store behind the retriever, nil
// when Config.WALDir is unset or no embedder is attached yet. The
// daemon's /metrics durability gauges read its Stats, and the feedback
// wiring rides its retry-schedule sidecar records.
func (c *Copilot) Durable() *vectordb.Durable {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.durable
}

// Batcher returns the micro-batching collector wrapped around the vector
// store, nil when batching is disabled (Config.BatchMax <= 1) or no
// embedder is attached yet. The daemon's /metrics surface reads its
// batch-formation stats.
func (c *Copilot) Batcher() *vectordb.Batcher {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.batcher
}

// Close releases background serving resources: the micro-batching
// collector's dispatcher and the durable store's group-commit and
// compaction loops (flushing the log, so everything learned is on disk).
// The Copilot keeps serving after Close — queries just bypass the
// collector and lose durability — so it is safe to call on shutdown while
// drains finish.
func (c *Copilot) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.batcher != nil {
		c.batcher.Close()
	}
	if c.durable != nil {
		c.durable.Close()
	}
}

// retriever snapshots the (embedder, db) pair so one call works against a
// consistent retriever even if SetEmbedder swaps it mid-flight.
func (c *Copilot) retriever() (Embedder, vectordb.Index) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.embedder, c.db
}

// retrieverCached is retriever plus the embed-cache generation captured
// under the same lock, so a cache fill can be discarded if SetEmbedder
// swapped the embedder (and bumped the generation) after the snapshot.
func (c *Copilot) retrieverCached() (Embedder, vectordb.Index, uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.embedder, c.db, c.embedCache.generation()
}

// Index returns the vector store (nil until SetEmbedder).
func (c *Copilot) Index() vectordb.Index {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.db
}

// trainPartitioner retrains an IVF-partitioned sharded index from its
// stored vectors. It is a no-op for a single shard and category routing;
// called after batch ingest so the quantizer reflects the loaded history.
// The handoff onto the trained quantizer is incremental — ingest and
// queries keep flowing — and under exact serving (Config.Probes == 0)
// placement never changes retrieval results, so retraining is invisible
// to Predict. With Probes > 0 this training is also the moment
// probe-limited serving engages: the freshly trained centroids are what
// probe selection ranks.
func (c *Copilot) trainPartitioner(db vectordb.Index) error {
	if c.cfg.Partitioner != PartitionIVF {
		return nil
	}
	s, ok := vectordb.AsSharded(db)
	if !ok || s.Len() == 0 || s.NumShards() < 2 {
		return nil
	}
	return s.TrainIVF(0)
}

// Collect runs the collection stage: match the incident's alert type to the
// team's handler and execute it, enriching the incident with multi-source
// evidence and action outputs. Each call executes on its own per-run
// execution context based at the incident's creation time, so concurrent
// collections never interleave their cost attribution or clock views (see
// the package comment); the finished run's cost merges back into the fleet
// meter and advances the shared virtual clock.
func (c *Copilot) Collect(inc *incident.Incident) (*handler.RunReport, error) {
	if err := inc.Validate(); err != nil {
		return nil, err
	}
	h, err := c.matchHandler(inc)
	if err != nil {
		return nil, err
	}
	ec := c.fleet.NewExec(inc.CreatedAt)
	if c.cfg.MultiTenant {
		ec = c.fleet.NewExecTenant(inc.CreatedAt, inc.OwningTeam)
	}
	// Merge on every exit: a failed run's already-charged queries must still
	// reach the fleet meter, as they did on the pre-context ambient path.
	defer ec.Finish()
	return c.runner.RunWith(ec, h, inc)
}

// matchHandler resolves the incident's collection handler. Multi-tenant
// serving tries the owning team's handler set first and falls back to the
// configured Team's (where InstallBuiltins registered the stock
// handlers), so a tenant without bespoke handlers still collects.
func (c *Copilot) matchHandler(inc *incident.Incident) (*handler.Handler, error) {
	if c.cfg.MultiTenant && inc.OwningTeam != "" && inc.OwningTeam != c.cfg.Team {
		if h, err := c.registry.Match(inc.OwningTeam, inc); err == nil {
			return h, nil
		}
	}
	return c.registry.Match(c.cfg.Team, inc)
}

// Summarize compresses the incident's collected diagnostic text through the
// LLM (Figure 7) and stores the result on the incident.
func (c *Copilot) Summarize(inc *incident.Incident) error {
	diag := inc.DiagnosticText()
	if diag == "" {
		return fmt.Errorf("core: incident %s has no diagnostic information to summarize (run Collect first)", inc.ID)
	}
	budget := c.chat.ContextWindow() - c.cfg.PromptReserve
	diag = prompt.TrimToTokens(diag, budget, c.chat.CountTokens)
	resp, err := c.chat.Complete(prompt.Summary(diag))
	if err != nil {
		return fmt.Errorf("core: summarize %s: %w", inc.ID, err)
	}
	c.meter.Charge("llm-summarize", resp.ModelLatency)
	inc.Summary = resp.Content
	return nil
}

// ContextText assembles the prompt context for an incident per the
// configured sources (Table 3 rows).
func (c *Copilot) ContextText(inc *incident.Incident) string {
	var parts []string
	if c.cfg.Context.AlertInfo {
		parts = append(parts, inc.Alert.Info())
	}
	if c.cfg.Context.DiagnosticInfo {
		if c.cfg.Context.Summarized && inc.Summary != "" {
			parts = append(parts, inc.Summary)
		} else {
			parts = append(parts, inc.DiagnosticText())
		}
	}
	if c.cfg.Context.ActionOutput {
		parts = append(parts, inc.ActionOutputText())
	}
	var out string
	for i, p := range parts {
		if i > 0 {
			out += "\n"
		}
		out += p
	}
	return out
}

// embedText is what the retriever embeds: the original (unsummarized)
// incident information — "we use the original incident information to do
// the embedding and nearest neighbor search, and use the corresponding
// summarized information as part of demonstrations" (§4.2.4).
func (c *Copilot) embedText(inc *incident.Incident) string {
	if t := inc.DiagnosticText(); t != "" {
		return t
	}
	return inc.Alert.Info()
}

// Learn inserts a labelled historical incident into the vector store. The
// incident must carry its ground-truth category; a missing summary is
// generated on the fly.
func (c *Copilot) Learn(inc *incident.Incident) error {
	embedder, db := c.retriever()
	if embedder == nil {
		return fmt.Errorf("core: no embedder attached (call SetEmbedder)")
	}
	entry, err := c.prepareEntry(embedder, inc)
	if err != nil {
		return err
	}
	return db.Add(entry)
}

// prepareEntry does the expensive half of Learn — summarization and
// embedding — without touching the store, so a batch ingest can run it on
// many incidents concurrently and commit the entries in order afterwards.
func (c *Copilot) prepareEntry(embedder Embedder, inc *incident.Incident) (vectordb.Entry, error) {
	if inc.Category == "" {
		return vectordb.Entry{}, fmt.Errorf("core: incident %s has no root-cause label", inc.ID)
	}
	if inc.Summary == "" && c.cfg.Context.Summarized {
		if err := c.Summarize(inc); err != nil {
			return vectordb.Entry{}, err
		}
	}
	vec, err := embedder.Embed(c.embedText(inc))
	if err != nil {
		return vectordb.Entry{}, fmt.Errorf("core: embed %s: %w", inc.ID, err)
	}
	demo := inc.Summary
	if demo == "" {
		demo = prompt.TrimToTokens(c.embedText(inc), 200, c.chat.CountTokens)
	}
	entry := vectordb.Entry{
		ID:       inc.ID,
		Vector:   vec,
		Category: inc.Category,
		Time:     inc.CreatedAt,
		Summary:  demo,
	}
	if c.cfg.MultiTenant {
		// The owning team is the tenant: the entry lands in the team's
		// namespace over the shared shard pool, and only that team's
		// retrievals (and unscoped operator queries) will see it.
		entry.Namespace = inc.OwningTeam
	}
	return entry, nil
}

// LearnBatch ingests many labelled incidents at once: summaries and
// embeddings are computed on the shared worker pool (workers <= 0 means
// GOMAXPROCS, 1 is sequential), then the entries are committed to the
// vector store in input order, so the resulting store is identical to a
// sequential Learn loop. Incidents are mutated like Learn mutates them
// (a missing Summary is filled in).
func (c *Copilot) LearnBatch(incs []*incident.Incident, workers int) error {
	embedder, db := c.retriever()
	if embedder == nil {
		return fmt.Errorf("core: no embedder attached (call SetEmbedder)")
	}
	entries, err := parallel.Map(len(incs), workers, func(i int) (vectordb.Entry, error) {
		return c.prepareEntry(embedder, incs[i])
	})
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := db.Add(e); err != nil {
			return err
		}
	}
	// With IVF routing the quantizer trains from whatever is stored after
	// the batch lands, so bulk history loads end with balanced shards.
	return c.trainPartitioner(db)
}

// Retrieve embeds free text and returns the k nearest historical
// incidents under the temporal-decay similarity anchored at the given
// time — the raw vector-DB read an OCE dashboard or the serving daemon's
// /api/retrieve endpoint issues, without running the prediction stage.
// diverse applies the §4.2.2 category-diversity constraint (each category
// at most once). k <= 0 uses the configured K; a zero at uses the current
// wall clock.
func (c *Copilot) Retrieve(text string, at time.Time, k int, diverse bool) ([]vectordb.Scored, error) {
	return c.retrieve(text, at, k, diverse, false, "")
}

// RetrieveIn is Retrieve scoped to one team's namespace: only entries
// learned under that tenant are searched. An unknown team returns zero
// hits without error and without creating any serving state for it;
// team = "" addresses the default namespace. It is the read behind the
// daemon's /api/retrieve?team= parameter.
func (c *Copilot) RetrieveIn(team, text string, at time.Time, k int, diverse bool) ([]vectordb.Scored, error) {
	return c.retrieve(text, at, k, diverse, true, team)
}

func (c *Copilot) retrieve(text string, at time.Time, k int, diverse, scoped bool, team string) ([]vectordb.Scored, error) {
	embedder, db, gen := c.retrieverCached()
	if embedder == nil {
		return nil, fmt.Errorf("core: no embedder attached (call SetEmbedder)")
	}
	if strings.TrimSpace(text) == "" {
		return nil, fmt.Errorf("core: empty retrieval query")
	}
	if k <= 0 {
		k = c.cfg.K
	}
	if at.IsZero() {
		at = time.Now()
	}
	// Free-text daemon queries repeat (dashboards refresh, OCEs retry the
	// same phrasing), and embedding dominates the cost of a cached-size
	// store lookup — memoize by exact text. The generation tag keeps a
	// concurrent SetEmbedder from poisoning the new cache with an
	// old-space vector.
	query, ok := c.embedCache.get(text)
	if !ok {
		var err error
		query, err = embedder.Embed(text)
		if err != nil {
			return nil, fmt.Errorf("core: embed retrieval query: %w", err)
		}
		c.embedCache.put(text, query, gen)
	}
	res, err := db.Search([]vectordb.Query{{
		Vector: query, Time: at, K: k, Alpha: c.cfg.Alpha, Diverse: diverse,
		Namespace: team, Scoped: scoped,
	}})
	if err != nil || len(res[0]) == 0 {
		return nil, err
	}
	return res[0], nil
}

// Predict runs the prediction stage for a collected incident: embed the
// original diagnostics, retrieve the top-K category-diverse neighbours
// under temporal-decay similarity, build the Figure 9 chain-of-thought
// prompt, and parse the model's category + explanation onto the incident.
func (c *Copilot) Predict(inc *incident.Incident) (prompt.Result, error) {
	embedder, db := c.retriever()
	if embedder == nil {
		return prompt.Result{}, fmt.Errorf("core: no embedder attached (call SetEmbedder)")
	}
	if c.cfg.Context.Summarized && c.cfg.Context.DiagnosticInfo && inc.Summary == "" {
		if err := c.Summarize(inc); err != nil {
			return prompt.Result{}, err
		}
	}
	query, err := embedder.Embed(c.embedText(inc))
	if err != nil {
		return prompt.Result{}, fmt.Errorf("core: embed query %s: %w", inc.ID, err)
	}
	// Multi-tenant demonstrations come from the owning team's own history:
	// the query's scope confines the neighbour search to entries the team
	// learned.
	found, err := db.Search([]vectordb.Query{{
		Vector: query, Time: inc.CreatedAt, K: c.cfg.K, Alpha: c.cfg.Alpha, Diverse: true,
		Namespace: inc.OwningTeam, Scoped: c.cfg.MultiTenant,
	}})
	if err != nil {
		return prompt.Result{}, err
	}
	hits := found[0]
	var demos []prompt.Demo
	budget := (c.chat.ContextWindow() - c.cfg.PromptReserve) / max(1, len(hits))
	for _, h := range hits {
		demos = append(demos, prompt.Demo{
			Summary:  prompt.TrimToTokens(h.Entry.Summary, budget, c.chat.CountTokens),
			Category: h.Entry.Category,
		})
	}
	input := c.ContextText(inc)
	inputBudget := (c.chat.ContextWindow() - c.cfg.PromptReserve) / 3
	input = prompt.TrimToTokens(input, inputBudget, c.chat.CountTokens)

	resp, err := c.chat.Complete(prompt.Prediction(input, demos))
	if err != nil {
		return prompt.Result{}, fmt.Errorf("core: predict %s: %w", inc.ID, err)
	}
	c.meter.Charge("llm-predict", resp.ModelLatency)
	res, err := prompt.ParsePrediction(resp.Content)
	if err != nil {
		return prompt.Result{}, fmt.Errorf("core: predict %s: %w", inc.ID, err)
	}
	inc.Predicted = res.Category
	inc.Explanation = res.Explanation
	return res, nil
}

// HandleIncident runs the full pipeline on a fresh incident: collection,
// summarization, prediction. It returns the collection report and the
// parsed prediction. It is safe to call from many goroutines, each on its
// own incident; every stage, collection included, runs concurrently (each
// collection on its own per-run execution context).
func (c *Copilot) HandleIncident(inc *incident.Incident) (*handler.RunReport, prompt.Result, error) {
	report, err := c.Collect(inc)
	if err != nil {
		return nil, prompt.Result{}, err
	}
	if err := c.Summarize(inc); err != nil {
		return report, prompt.Result{}, err
	}
	res, err := c.Predict(inc)
	if err != nil {
		return report, prompt.Result{}, err
	}
	return report, res, nil
}

// IncidentAt stamps an incident from an alert at the given time with a
// deterministic ID suffix (the "Incident Parsing" box of Figure 4).
func IncidentAt(alert incident.Alert, severity incident.Severity, team string, seq int, at time.Time) *incident.Incident {
	return &incident.Incident{
		ID:         fmt.Sprintf("INC-%s-%06d", at.Format("20060102"), seq),
		Title:      alert.Message,
		OwningTeam: team,
		Severity:   severity,
		Alert:      alert,
		CreatedAt:  at,
	}
}
