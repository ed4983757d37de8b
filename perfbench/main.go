// Command perfbench is the repository's end-to-end benchmark. It drives
// the real cmd/rcacopilotd binary over loopback HTTP from one generator
// process and checks its answers, for one of three workloads:
//
//	incident-replay   held-out incidents, label withheld, on four cold-booted daemons in turn
//	retrieval-mix     /api/retrieve over the full year, half hot texts, half unseen
//	feedback-durable  incidents plus one OCE verdict each, on a WAL, ending in kill -9
//
// Each workload sends its ops in closed loops: a serial phase, one op in
// flight, gives its latency, and a capacity phase, three in flight, its
// throughput.
//
// With --trace 1 it also replays the same inputs in process, one
// operation at a time, timing the public call into each layer, and prints
// per-layer numbers instead of the end-to-end ones. BENCHMARK.json at the
// repository root and BENCHMARK.md here document every metric. Run it
// through run.sh, which builds the daemon and this benchmark first;
// --workload all runs the three in turn:
//
//	bash perfbench/run.sh --workload incident-replay --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // rcacopilotd binary
	workDir  string // build directory: reference cache, spans, run scratch
	runDir   string // this run's scratch directory (logs, WAL directories)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "incident-replay, retrieval-mix, feedback-durable, or all three in turn")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: arrivals, orders and query mix")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "run length: each phase sends a fixed number of ops per second of it")
	flag.IntVar(&trace, "trace", 0, "1: print per-layer metrics from the traced in-process replay")
	flag.StringVar(&cfg.daemon, "daemon", "", "rcacopilotd binary")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build", "build directory")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.daemon == "" || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --daemon, --seconds > 0 and --trace 0|1")
		return 2
	}
	if cfg.workload == "all" {
		return runAll()
	}
	r := &run{cfg: cfg}
	var work func() error
	switch cfg.workload {
	case "incident-replay":
		work = r.incidentReplay
	case "retrieval-mix":
		work = r.retrievalMix
	case "feedback-durable":
		work = r.feedbackDurable
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	r.cfg.runDir = filepath.Join(cfg.workDir, "run", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(r.cfg.runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(r.cfg.runDir)

	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	err := work()
	layer := make(map[string]float64)
	if err == nil && cfg.trace {
		err = r.traced(layer)
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	attempted, failed := 0, 0
	for _, p := range r.phases {
		if !p.measured {
			continue // the feedback-durable warm-up
		}
		for _, k := range p.kinds {
			attempted += k.sent
			failed += k.failed
		}
	}
	metrics := r.endToEnd()
	if cfg.trace {
		metrics = r.layerMetrics(layer)
	}
	for _, name := range sortedKeys(metrics) {
		fmt.Printf("metric %-30s %14.6f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	out, err := json.Marshal(map[string]any{
		"correct": len(r.problems) == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if len(r.problems) > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload in turn, each in its own process with the
// same flags, and fails if any of them fails.
func runAll() int {
	code := 0
	for _, w := range []string{"incident-replay", "retrieval-mix", "feedback-durable"} {
		args := []string{"--workload", w}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(os.Args[0], args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

func (r *run) endToEnd() map[string]metric {
	acc := 0.0
	if r.answered > 0 {
		acc = float64(r.right) / float64(r.answered)
	}
	cpu := 0.0
	if r.opsDone > 0 {
		cpu = r.cpuMS / float64(r.opsDone)
	}
	return map[string]metric{
		"setup_s":          {quantile(r.setups, 0.5), "s"},
		"restart_s":        {quantile(r.restarts, 0.5), "s"},
		"latency_p50_ms":   {quantile(r.primary, 0.5), "ms"},
		"throughput_per_s": {quantile(r.rates, 0.5), "1/s"},
		"cpu_ms_per_op":    {cpu, "ms"},
		"peak_rss_mb":      {r.rssMB, "MB"},
		"rca_accuracy":     {acc, "ratio"},
	}
}

func (r *run) layerMetrics(layer map[string]float64) map[string]metric {
	b := r.boundary
	set := func(name string, v float64) {
		if _, ok := layer[name]; !ok {
			layer[name] = v
		}
	}
	set("vectordb.replay_s", 0)
	set("vectordb.entries", float64(b.entries))
	set("wal.appended_records", float64(r.walAppended))
	set("wal.synced_records", float64(r.walSynced))
	set("wal.bytes_per_record", r.walBPR)
	set("wal.compacted", float64(r.compacted))
	set("httpd.accepted", float64(b.accepted))
	set("httpd.rejected_load", float64(b.rejectedLoad))
	set("httpd.rejected_rate", float64(b.rejectedRate))
	set("daemon.sse_dropped", float64(b.dropped))
	set("daemon.completed", float64(b.completed))
	set("daemon.failed", float64(b.failed))
	set("bench.gen_late_p99_ms", quantile(r.late, 0.99))
	set("feedback.http_p99_ms", r.verdictP99)
	out := make(map[string]metric, len(layer))
	for name, v := range layer {
		out[name] = metric{v, layerUnits[name]}
	}
	return out
}

var layerUnits = map[string]string{
	"setup.corpus_s": "s", "setup.train_s": "s", "setup.ingest_s": "s",
	"handler.collect_ms": "ms", "simgpt.summarize_ms": "ms", "simgpt.predict_ms": "ms",
	"simgpt.count_tokens_ms": "ms", "simgpt.prompt_tokens": "count", "simgpt.completion_tokens": "count",
	"fasttext.embed_ms": "ms", "fasttext.embed_calls_per_op": "count",
	"core.predict_self_ms": "ms", "core.embed_cache_hit_share": "ratio",
	"vectordb.retrieve_self_ms": "ms", "vectordb.entries": "count",
	"feedback.learn_ms": "ms", "feedback.http_p99_ms": "ms",
	"wal.appended_records": "count", "wal.synced_records": "count", "wal.bytes_per_record": "B",
	"wal.compacted": "count", "vectordb.replay_s": "s",
	"httpd.accepted": "count", "httpd.rejected_load": "count", "httpd.rejected_rate": "count",
	"daemon.sse_dropped": "count", "daemon.completed": "count", "daemon.failed": "count",
	"go.allocs_per_op": "count", "go.alloc_bytes_per_op": "B",
	"bench.gen_late_p99_ms": "ms", "trace.overhead_pct": "%",
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
