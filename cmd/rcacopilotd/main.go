// Command rcacopilotd is the unified RCACopilot serving daemon: one
// hardened HTTP/JSON service carrying the whole on-call loop that the
// library exposes piecemeal —
//
//	POST /api/incidents           submit an incident; 202 + assigned id
//	GET  /api/incidents           submission statuses
//	GET  /api/incidents/{id}      one handling result
//	GET  /api/incidents/stream    results as server-sent events
//	POST /api/feedback            OCE verdict (confirm/correct/reject)
//	GET  /api/retrieve?q=...      nearest historical incidents
//	GET  /metrics                 serving, admission, retrieval, feedback, cost
//	/api/handlers, /api/ops, ...  handler construction (same API as handlerd)
//
// Incidents are handled by System.HandleStream on the shared worker
// budget; per-team token buckets plus a budget-derived in-flight bound
// (internal/httpd.TeamLimiter) keep admission matched to processing
// capacity. The front door is the shared hardened server
// (internal/httpd): slowloris-safe timeouts and strict bounded JSON
// bodies. SIGTERM/SIGINT drains gracefully — new submissions are refused,
// every admitted incident completes and is published, feedback is flushed
// — bounded by -grace.
//
// Startup builds the simulated deployment: generate the synthetic corpus,
// train the FastText embedding, ingest -history incidents. -shards and
// -recall-target opt retrieval into the sharded store and adaptive probe
// serving, whose live recall/probe state then shows in /metrics. -wal-dir
// puts a write-ahead log + snapshot under the store: a killed daemon —
// SIGKILL included — reboots with its learned corpus, converged tuner
// state and retry schedule, skipping re-ingest, with recovery visible as
// the /metrics durability gauges.
//
//	rcacopilotd -addr :8080 -seed 1 -history 300
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/feedback"
	"repro/internal/httpd"

	rcacopilot "repro"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	model := flag.String("model", rcacopilot.ModelGPT4, "chat model: gpt-4 or gpt-3.5-turbo")
	seed := flag.Int64("seed", 1, "deterministic seed")
	days := flag.Int("days", 365, "simulated corpus span in days")
	history := flag.Int("history", 300, "historical incidents to ingest at startup")
	shards := flag.Int("shards", 0, "vector-store shards (0 = one per CPU, 1 = a single shard)")
	recall := flag.Float64("recall-target", 0, "adaptive probe serving recall SLO (0 disables; needs -shards > 1)")
	retrainSkew := flag.Float64("retrain-skew", 0, "auto-retrain the IVF quantizer at this imbalance ratio (0 disables)")
	quantized := flag.Bool("quantized", false, "two-stage probe scan: int8 candidate collection + exact re-rank (needs -recall-target)")
	overfetch := flag.Int("overfetch", 0, "quantized candidate pool per probed shard, K×overfetch (0 = default 4)")
	batchMax := flag.Int("batch-max", 0, "micro-batch concurrent retrievals, up to this many per scan-once-per-shard execution (bit-identical results; 0/1 = unbatched)")
	batchWait := flag.Duration("batch-wait", 0, "max time an under-filled retrieval batch waits for companions (0 = 500µs default; needs -batch-max >= 2)")
	learnQueue := flag.Int("learn-queue", 64, "async feedback-learn queue depth (0 = learn inline)")
	retry := flag.Bool("retry", true, "run the learn-failure retry queue")
	tenants := flag.Bool("tenants", false, "multi-tenant serving: per-team retrieval namespaces, handler fallback, per-tenant cost attribution")
	rate := flag.Float64("rate", 5, "sustained per-team submissions/second")
	burst := flag.Float64("burst", 10, "per-team submission burst")
	queue := flag.Int("queue", 64, "submission queue depth")
	admitQueue := flag.Int("admit-queue", 0, "severity-weighted admission wait queue at saturation (0 = reject immediately)")
	grace := flag.Duration("grace", 30*time.Second, "graceful-shutdown budget after SIGTERM")
	walDir := flag.String("wal-dir", "", "durable vector store directory: write-ahead log + snapshot; a killed daemon reboots with its learned corpus, tuner state and retry schedule (empty = in-memory)")
	walSyncEvery := flag.Int("wal-sync-every", 0, "WAL group-commit size boundary (0 = 64; 1 = fsync every learn; needs -wal-dir)")
	walSyncInterval := flag.Duration("wal-sync-interval", 0, "WAL group-commit flush cadence (0 = 50ms; needs -wal-dir)")
	walCompactBytes := flag.Int64("wal-compact-bytes", 0, "log size triggering snapshot compaction + rotation (0 = 4MiB, negative = never; needs -wal-dir)")
	flag.Parse()

	if err := run(config{
		addr: *addr, model: *model, seed: *seed, days: *days, history: *history,
		shards: *shards, recall: *recall, retrainSkew: *retrainSkew,
		quantized: *quantized, overfetch: *overfetch,
		batchMax: *batchMax, batchWait: *batchWait,
		learnQueue: *learnQueue, retry: *retry, tenants: *tenants,
		rate: *rate, burst: *burst, queue: *queue, admitQueue: *admitQueue, grace: *grace,
		walDir: *walDir, walSyncEvery: *walSyncEvery,
		walSyncInterval: *walSyncInterval, walCompactBytes: *walCompactBytes,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "rcacopilotd:", err)
		os.Exit(1)
	}
}

type config struct {
	addr                string
	model               string
	seed                int64
	days, history       int
	shards              int
	recall, retrainSkew float64
	quantized           bool
	overfetch           int
	batchMax            int
	batchWait           time.Duration
	learnQueue          int
	retry               bool
	tenants             bool
	rate, burst         float64
	queue               int
	admitQueue          int
	grace               time.Duration
	walDir              string
	walSyncEvery        int
	walSyncInterval     time.Duration
	walCompactBytes     int64
}

func run(c config) error {
	log.Printf("rcacopilotd: generating corpus (seed %d, %d days)", c.seed, c.days)
	spec := rcacopilot.CorpusSpec{
		Seed: c.seed, Start: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
		Days: c.days, RecurrenceWithin20: 0.938, Team: "Transport",
	}
	corpus, err := rcacopilot.GenerateCorpusSpec(spec)
	if err != nil {
		return err
	}
	cfg := rcacopilot.Config{
		Model: c.model, Seed: c.seed,
		Shards:          c.shards,
		RecallTarget:    c.recall,
		RetrainSkew:     c.retrainSkew,
		Quantized:       c.quantized,
		Overfetch:       c.overfetch,
		BatchMax:        c.batchMax,
		BatchWait:       c.batchWait,
		AsyncLearnQueue: c.learnQueue,
		MultiTenant:     c.tenants,
		WALDir:          c.walDir,
		WALSyncEvery:    c.walSyncEvery,
		WALSyncInterval: c.walSyncInterval,
		WALCompactBytes: c.walCompactBytes,
	}
	if c.recall > 0 || c.retrainSkew >= 1 {
		cfg.Partitioner = rcacopilot.PartitionIVF
	}
	sys, err := rcacopilot.NewSystem(corpus.Fleet, cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	n := c.history
	if n <= 0 || n > len(corpus.Incidents) {
		n = len(corpus.Incidents)
	}
	log.Printf("rcacopilotd: training embedding and ingesting %d/%d incidents", n, len(corpus.Incidents))
	if err := sys.TrainEmbedding(corpus.Incidents[:n]); err != nil {
		return err
	}
	// With -wal-dir, TrainEmbedding replays the directory's snapshot + log
	// into the store (the embedding is deterministic from corpus and seed,
	// so the replayed vectors are in the attached space). A warm restart —
	// including one after SIGKILL — therefore skips re-ingest and serves
	// the recovered corpus.
	if replayed := sys.Copilot().Index().Len(); c.walDir != "" && replayed > 0 {
		log.Printf("rcacopilotd: recovered %d incidents from %s, skipping re-ingest", replayed, c.walDir)
	} else if err := sys.AddHistory(corpus.Incidents[:n]); err != nil {
		return err
	}
	if c.retry {
		if err := sys.Feedback().StartRetry(feedback.RetryConfig{}); err != nil {
			return err
		}
	}

	d := newDaemon(sys, httpd.LimitConfig{Rate: c.rate, Burst: c.burst, QueueDepth: c.admitQueue}, c.queue)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	log.Printf("rcacopilotd: listening on %s (%d historical incidents, %d categories)",
		c.addr, sys.Copilot().Index().Len(), len(sys.Copilot().Index().Categories()))
	if err := httpd.Serve(ctx, httpd.NewServer(c.addr, d), c.grace, d.drain); err != nil {
		return err
	}
	log.Print("rcacopilotd: drained and stopped")
	return nil
}
