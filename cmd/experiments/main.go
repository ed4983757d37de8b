// Command experiments regenerates every table and figure of the paper's
// evaluation (§5) against the simulated substrates:
//
//	experiments -run all            # everything
//	experiments -run table2         # one experiment
//	experiments -run table2,fig12   # a subset
//	experiments -seed 7             # different corpus/LLM seed
//	experiments -workers 1          # sequential reference run
//	experiments -shards 8           # sharded vector index (same results)
//	experiments -shards 8 -partitioner ivf   # IVF coarse-quantizer routing
//	experiments -shards 8 -partitioner ivf -probes 2  # approximate serving
//	experiments -shards 8 -partitioner ivf -recall-target 0.95  # adaptive probe budget
//	experiments -shards 8 -partitioner ivf -retrain-skew 1.5    # skew-triggered retrain
//	experiments -shards 8 -partitioner ivf -probes 2 -quantized  # int8 two-stage scan
//	experiments -parallel-budget 16 # pin the worker budget explicitly
//	experiments -auto-limit         # latency-driven worker budget
//
// The retrieval goldens are shard-count-independent: -shards sets how many
// shards the vector store behind every pipeline splits into (category-hash
// or IVF routing per -partitioner), and because sharded search is exact and
// merges under one total retrieval order, every table and figure reproduces
// bit-identically. -probes opts into probe-limited approximate retrieval
// (only the nearest IVF partitions are searched), which trades exactness
// for scan reduction — tables may then deviate from the goldens by design;
// the recall floor for that mode is pinned in internal/vectordb.
// -recall-target replaces the static budget with the recall-SLO
// auto-tuner (and -retrain-skew enables automatic IVF retraining): tables
// deviate the same way, and more so early in a run while the controller
// is still converging from its cold probes=1 start — the SLO describes
// steady-state serving, not a short evaluation sweep.
//
// The experiments fan out on a bounded worker pool (one worker per CPU by
// default); because the simulated models are order-independent, every
// worker count produces identical scores and modelled (*-marked) latency
// columns — -workers only changes wall time, which is also what the
// measured (unstarred) Train/Infer cells report, so only those cells vary
// between runs.
//
// Outputs are printed in the same row/series layout the paper reports, so
// shapes can be compared side by side (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/parallel"
	"repro/internal/vectordb"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiments: table1,table2,table3,table4,fig2,fig3,fig12,trust,ablation")
	seed := flag.Int64("seed", 1, "corpus and model seed")
	teamsN := flag.Int("team-incidents", 20, "incidents per team for table4")
	workers := flag.Int("workers", 0, "worker-pool size; 0 = one per CPU, 1 = sequential")
	shards := flag.Int("shards", 0, "vector-index shard count; 0 = one per CPU, 1 = a single shard")
	partitioner := flag.String("partitioner", "", "shard routing: category (default) or ivf")
	probes := flag.Int("probes", 0, "IVF partitions searched per query (approximate); 0 = exact fan-out")
	recallTarget := flag.Float64("recall-target", 0, "recall-SLO auto-tuner target in (0,1]; replaces -probes with a controller-owned budget")
	shadowRate := flag.Float64("shadow-rate", 0, "fraction of queries the auto-tuner shadows exactly; 0 = default 0.05")
	retrainSkew := flag.Float64("retrain-skew", 0, "auto-retrain the IVF quantizer once max/mean shard skew or centroid drift reaches this ratio (>= 1); 0 = off")
	quantized := flag.Bool("quantized", false, "two-stage probe scan: int8 candidate collection + exact re-rank (requires probe-limited serving)")
	overfetch := flag.Int("overfetch", 0, "quantized candidate pool per probed shard, K×overfetch; 0 = default 4")
	batch := flag.Int("batch", 0, "micro-batch concurrent retrievals, up to this many per scan-once-per-shard execution (bit-identical results); 0/1 = unbatched")
	tenants := flag.Bool("tenants", false, "run table4's teams as co-tenants on one shared fleet with per-tenant cost attribution")
	parallelBudget := flag.Int("parallel-budget", -1, "pin the process-wide extra-worker budget; -1 = default/auto")
	autoLimit := flag.Bool("auto-limit", false, "auto-size the worker budget from observed model-call latency")
	flag.Parse()

	if *probes < 0 {
		fatal(fmt.Errorf("-probes must be >= 0 (0 = exact fan-out), got %d", *probes))
	}
	if *probes > 0 && (*shards <= 1 || *partitioner != "ivf") {
		// Fail here rather than deep inside whichever experiment first
		// builds a pipeline: probe selection needs trained IVF centroids.
		fatal(fmt.Errorf("-probes %d requires -shards > 1 and -partitioner ivf (got -shards %d -partitioner %q)",
			*probes, *shards, *partitioner))
	}
	if *recallTarget < 0 || *recallTarget > 1 {
		fatal(fmt.Errorf("-recall-target must be in (0, 1] (0 = off), got %v", *recallTarget))
	}
	if *recallTarget > 0 && *probes > 0 {
		fatal(fmt.Errorf("-recall-target and -probes are mutually exclusive (the auto-tuner owns the probe budget)"))
	}
	if *retrainSkew != 0 && *retrainSkew < 1 {
		fatal(fmt.Errorf("-retrain-skew must be 0 (off) or >= 1, got %v", *retrainSkew))
	}
	if (*recallTarget > 0 || *retrainSkew > 0) && (*shards <= 1 || *partitioner != "ivf") {
		fatal(fmt.Errorf("adaptive serving (-recall-target/-retrain-skew) requires -shards > 1 and -partitioner ivf (got -shards %d -partitioner %q)",
			*shards, *partitioner))
	}
	if *shadowRate < 0 || *shadowRate > 1 {
		fatal(fmt.Errorf("-shadow-rate must be in (0, 1] (0 = default), got %v", *shadowRate))
	}
	if *shadowRate > 0 && *recallTarget == 0 {
		fatal(fmt.Errorf("-shadow-rate without -recall-target has nothing to tune"))
	}
	if *overfetch < 0 {
		fatal(fmt.Errorf("-overfetch must be >= 0 (0 = default), got %d", *overfetch))
	}
	if *overfetch > 0 && !*quantized {
		fatal(fmt.Errorf("-overfetch without -quantized has nothing to overfetch"))
	}
	if *quantized && *probes == 0 && *recallTarget == 0 {
		fatal(fmt.Errorf("-quantized requires probe-limited serving (-probes > 0 or -recall-target > 0); exact fan-out never uses the int8 sidecar"))
	}
	if *batch < 0 {
		fatal(fmt.Errorf("-batch must be >= 0 (0/1 = unbatched), got %d", *batch))
	}
	if *batch > 1 && *workers == 1 {
		fatal(fmt.Errorf("-batch %d with -workers 1 has nothing to coalesce: sequential cells issue one retrieval at a time", *batch))
	}
	if *parallelBudget >= 0 {
		parallel.SetLimit(*parallelBudget)
		if *autoLimit {
			fmt.Fprintln(os.Stderr, "experiments: -parallel-budget pins the budget; ignoring -auto-limit")
			*autoLimit = false
		}
	}
	eval.SetChatAutoTune(*autoLimit)

	want := map[string]bool{}
	for _, r := range strings.Split(*run, ",") {
		want[strings.TrimSpace(r)] = true
	}
	all := want["all"]

	var env *eval.Env
	needEnv := all || want["table1"] || want["table2"] || want["table3"] ||
		want["fig2"] || want["fig3"] || want["fig12"] || want["trust"] || want["ablation"]
	if needEnv {
		start := time.Now()
		var err error
		env, err = eval.NewEnv(*seed)
		if err != nil {
			fatal(err)
		}
		env.Workers = *workers
		env.Shards = *shards
		env.Partitioner = *partitioner
		env.Probes = *probes
		env.RecallTarget = *recallTarget
		env.ShadowRate = *shadowRate
		env.RetrainSkew = *retrainSkew
		env.Quantized = *quantized
		env.Overfetch = *overfetch
		env.BatchMax = *batch
		if *batch > 1 {
			fmt.Printf("retrieval batching: up to %d concurrent queries per scan (bit-identical to unbatched)\n", *batch)
		}
		if *shards > 1 {
			p := *partitioner
			if p == "" {
				p = "category"
			}
			serving := "exact fan-out"
			if *probes > 0 {
				serving = fmt.Sprintf("probe-limited, %d probes (approximate once IVF trains)", *probes)
			}
			if *recallTarget > 0 {
				serving = fmt.Sprintf("adaptive probes, recall SLO %.2f (approximate once IVF trains)", *recallTarget)
			}
			if *retrainSkew > 0 {
				serving += fmt.Sprintf(", auto-retrain at skew %.2f", *retrainSkew)
			}
			if *quantized {
				of := *overfetch
				if of == 0 {
					of = vectordb.DefaultOverfetch
				}
				serving += fmt.Sprintf(", int8 two-stage scan (overfetch %d)", of)
			}
			fmt.Printf("vector index: %d shards (%s routing, %s)\n", *shards, p, serving)
		}
		if *workers != 1 {
			n := *workers
			if n <= 0 {
				n = runtime.GOMAXPROCS(0)
			}
			fmt.Printf("worker pool: %d workers over %d CPUs\n", n, runtime.NumCPU())
		}
		stats := env.Corpus.ComputeStats()
		fmt.Printf("corpus: %d incidents, %d categories, new-category fraction %.4f, recurrence<=20d %.3f (generated in %v)\n\n",
			stats.NumIncidents, stats.NumCategories, stats.NewFraction, stats.RecurrenceWithin20, time.Since(start).Round(time.Millisecond))
	}

	if all || want["table1"] {
		section("Table 1: example incidents per root cause category")
		rows, err := eval.RunTable1(env)
		if err != nil {
			fatal(err)
		}
		fmt.Println(eval.FormatTable1(rows))
	}
	if all || want["fig2"] {
		section("Figure 2: recurring incident proportion vs time interval")
		fmt.Println(eval.FormatHist("interval (days) | proportion", eval.RunFig2(env), 50))
	}
	if all || want["fig3"] {
		section("Figure 3: distribution of incident category frequency")
		fmt.Println(eval.FormatHist("occurrences | #categories", eval.RunFig3(env), 0.33))
	}
	if all || want["table2"] {
		section("Table 2: effectiveness of different methods")
		start := time.Now()
		rows, err := eval.RunTable2(env)
		if err != nil {
			fatal(err)
		}
		fmt.Println(eval.FormatTable2(rows))
		fmt.Printf("(wall time %v)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if all || want["table3"] {
		section("Table 3: effectiveness of different prompt context")
		rows, err := eval.RunTable3(env)
		if err != nil {
			fatal(err)
		}
		fmt.Println(eval.FormatTable3(rows))
	}
	if all || want["fig12"] {
		section("Figure 12: effectiveness of different K and alpha")
		points, err := eval.RunFig12(env, nil, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(eval.FormatFig12(points))
	}
	if all || want["table4"] {
		if *tenants {
			section("Table 4: teams as co-tenants on one shared fleet")
			rows, shares, err := eval.RunTable4Tenants(*seed, *teamsN)
			if err != nil {
				fatal(err)
			}
			fmt.Println(eval.FormatTable4(rows))
			fmt.Println(eval.FormatTenantShares(shares))
		} else {
			section("Table 4: teams using RCACopilot diagnostic collection")
			rows, err := eval.RunTable4(*seed, *teamsN, *workers)
			if err != nil {
				fatal(err)
			}
			fmt.Println(eval.FormatTable4(rows))
		}
	}
	if all || want["trust"] {
		section("§5.6 Trustworthiness: three evaluation rounds")
		rounds, err := eval.RunTrustworthiness(env, 3)
		if err != nil {
			fatal(err)
		}
		fmt.Println(eval.FormatTrust(rounds))
	}
	if all || want["ablation"] {
		section("Design ablation: retrieval diversity and embedding scale")
		rows, err := eval.RunDesignAblation(env)
		if err != nil {
			fatal(err)
		}
		fmt.Println(eval.FormatAblation(rows))
	}
}

func section(title string) {
	fmt.Println("==== " + title)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
