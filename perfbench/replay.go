package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	rcacopilot "repro"
	"repro/internal/core"
)

// replayOut is what one in-process replay answered, and what it cost.
type replayOut struct {
	preds  []string
	hits   [][]hit
	ops    int
	wall   time.Duration
	allocs uint64
	bytes  uint64
}

// replayBoth runs the workload's inputs one operation at a time through
// off (untraced) and on (traced by tr), interleaving the two systems op by
// op so that drifts in host speed fall on both alike. Incidents go through
// Collect, Summarize and Predict (then a verdict through Feedback().Submit
// and Flush on feedback-durable), queries through System.Retrieve.
func (r *run) replayBoth(off, on *inproc, tr *tracer) (outOff, outOn replayOut, err error) {
	var steps []func(p *inproc, tr *tracer, out *replayOut) error
	for _, q := range r.queries[:min(len(r.queries), maxReplayQueries)] {
		steps = append(steps, func(p *inproc, tr *tracer, out *replayOut) error {
			root := tr.beginOp(out.ops, "op.retrieve")
			s := tr.begin("core.retrieve")
			res, err := p.sys.Retrieve(r.pool.texts[q.text], 0, q.diverse)
			tr.end(s)
			tr.end(root)
			out.hits = append(out.hits, toHits(res))
			return err
		})
	}
	decoded := make(map[*inproc][]*rcacopilot.Incident)
	for _, p := range []*inproc{off, on} {
		for _, sub := range r.replay {
			in, err := decodeSubmitted(r.incs, sub.base, sub.id)
			if err != nil {
				return outOff, outOn, err
			}
			decoded[p] = append(decoded[p], in)
		}
	}
	for i, sub := range r.replay {
		steps = append(steps, func(p *inproc, tr *tracer, out *replayOut) error {
			in, cop := decoded[p][i], p.sys.Copilot()
			root := tr.beginOp(out.ops, "op.incident")
			defer tr.end(root)
			s := tr.begin("core.collect")
			_, err := cop.Collect(in)
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin("core.summarize")
			err = cop.Summarize(in)
			tr.end(s)
			if err != nil {
				return err
			}
			s = tr.begin("core.predict")
			_, err = cop.Predict(in)
			tr.end(s)
			out.preds = append(out.preds, string(in.Predicted))
			return err
		})
		if r.cfg.workload != "feedback-durable" {
			continue
		}
		steps = append(steps, func(p *inproc, tr *tracer, out *replayOut) error {
			in := decoded[p][i]
			verdict, corrected := rcacopilot.VerdictConfirm, rcacopilot.Category("")
			if label := r.labels[sub.base]; string(in.Predicted) != label {
				verdict, corrected = rcacopilot.VerdictCorrect, rcacopilot.Category(label)
			}
			root := tr.beginOp(out.ops, "op.verdict")
			s := tr.begin("feedback.learn")
			_, err := p.sys.Feedback().Submit(in, verdict, corrected, "perfbench", "")
			if err == nil {
				err = p.sys.Feedback().Flush()
			}
			tr.end(s)
			tr.end(root)
			return err
		})
	}

	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	runtime.GC()
	for i, step := range steps {
		untraced := func() error {
			metrics.Read(allocs)
			o0, b0 := allocs[0].Value.Uint64(), allocs[1].Value.Uint64()
			t := time.Now()
			if err := step(off, nil, &outOff); err != nil {
				return fmt.Errorf("untraced replay: %w", err)
			}
			outOff.wall += time.Since(t)
			metrics.Read(allocs)
			outOff.allocs += allocs[0].Value.Uint64() - o0
			outOff.bytes += allocs[1].Value.Uint64() - b0
			outOff.ops++
			return nil
		}
		traced := func() error {
			t := time.Now()
			if err := step(on, tr, &outOn); err != nil {
				return fmt.Errorf("traced replay: %w", err)
			}
			outOn.wall += time.Since(t)
			outOn.ops++
			return nil
		}
		// The second run of an input finds its data warm in the CPU
		// caches; alternate which side goes first.
		first, second := untraced, traced
		if i%2 == 1 {
			first, second = traced, untraced
		}
		if err := first(); err != nil {
			return outOff, outOn, err
		}
		if err := second(); err != nil {
			return outOff, outOn, err
		}
	}
	return outOff, outOn, nil
}

// maxReplayQueries caps the retrieval-mix replay; its first 2,500 queries
// hold both the hot set and the first-seen texts in the run's proportions.
const maxReplayQueries = 2500

// traced is the per-layer run: the same inputs replayed in process with
// the timed wrappers on and off.
func (r *run) traced(layer map[string]float64) error {
	history := defaultHistory
	if r.cfg.workload == "retrieval-mix" {
		history = fullHistory
	}
	var walW, walU string
	if r.cfg.workload == "feedback-durable" {
		walW, walU = filepath.Join(r.cfg.runDir, "trace-wal-on"), filepath.Join(r.cfg.runDir, "trace-wal-off")
	}
	tr := newTracer()
	w, err := newInproc(inprocOptions{history: history, walDir: walW, tr: tr})
	if err != nil {
		return err
	}
	defer w.close()
	u, err := newInproc(inprocOptions{history: history, walDir: walU, model: w.model})
	if err != nil {
		return err
	}
	defer u.close()

	off, on, err := r.replayBoth(u, w, tr)
	if err != nil {
		return err
	}
	r.check(fmt.Sprint(on.preds) == fmt.Sprint(off.preds), "traced and untraced replays predict differently")
	r.check(fmt.Sprint(on.hits) == fmt.Sprint(off.hits), "traced and untraced replays retrieve differently")
	r.logf("in-process replay: %d ops, untraced %.3f s, traced %.3f s", off.ops, off.wall.Seconds(), on.wall.Seconds())
	if r.cfg.workload == "incident-replay" {
		ref, err := r.loadReference()
		if err != nil {
			return err
		}
		for i, sub := range r.replay {
			r.check(off.preds[i] == ref.Predicted[sub.base], "in-process replay of %s predicts %q, reference %q", sub.id, off.preds[i], ref.Predicted[sub.base])
		}
	}

	if r.walCopy != "" {
		sys, err := rcacopilot.NewSystem(rcacopilot.NewFleet(corpusSeed), rcacopilot.Config{
			Model: rcacopilot.ModelGPT4, Seed: corpusSeed, WALDir: r.walCopy,
		})
		if err != nil {
			return err
		}
		s := tr.begin("vectordb.replay")
		t := time.Now()
		_, err = sys.Copilot().SetEmbedder(core.FastTextEmbedder{Model: w.model})
		layer["vectordb.replay_s"] = time.Since(t).Seconds()
		tr.end(s)
		if err != nil {
			return fmt.Errorf("replay the killed WAL directory: %w", err)
		}
		r.logf("in-process replay of the killed WAL directory: %d entries in %.3f s", sys.Copilot().Index().Len(), layer["vectordb.replay_s"])
		sys.Close()
	}

	for k, v := range spanMetrics(tr.spans) {
		layer[k] = v
	}
	layer["setup.corpus_s"] = w.corpusT.Seconds()
	layer["setup.train_s"] = w.trainT.Seconds()
	layer["setup.ingest_s"] = w.ingestT.Seconds()
	layer["go.allocs_per_op"] = float64(off.allocs) / float64(off.ops)
	layer["go.alloc_bytes_per_op"] = float64(off.bytes) / float64(off.ops)
	layer["trace.overhead_pct"] = 100 * (on.wall.Seconds()/off.wall.Seconds() - 1)

	dir := filepath.Join(r.cfg.workDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.cfg.workload, r.cfg.seed))
	r.logf("spans: %d written to %s", len(tr.spans), path)
	return tr.write(path)
}

// spanMetrics derives the per-operation layer numbers from the replay's
// spans. Self time is a span's duration minus its children's; the replay
// is sequential, so children never overlap.
func spanMetrics(spans []span) map[string]float64 {
	child := make(map[int]time.Duration)
	embedKids := make(map[int]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
			if s.Name == "fasttext.embed" {
				embedKids[s.Parent]++
			}
		}
	}
	var (
		incidents, retrievals, verdicts, ops                      int
		collect, summarize, predictLLM, countTok, embed, predSelf time.Duration
		retSelf, learn                                            time.Duration
		prompt, completion, embedCalls, cacheHits                 int
	)
	for i, s := range spans {
		if s.Op < 0 {
			continue
		}
		switch s.Name {
		case "op.incident":
			incidents++
			ops++
		case "op.retrieve":
			retrievals++
			ops++
		case "op.verdict":
			verdicts++
			ops++
		case "core.collect":
			collect += s.dur()
		case "core.summarize":
			summarize += s.dur()
		case "core.predict":
			predSelf += s.dur() - child[i]
		case "core.retrieve":
			retSelf += s.dur() - child[i]
			if embedKids[i] == 0 {
				cacheHits++
			}
		case "feedback.learn":
			learn += s.dur()
		case "simgpt.complete":
			if s.Parent >= 0 && spans[s.Parent].Name == "core.predict" {
				predictLLM += s.dur()
			}
			prompt += s.Prompt
			completion += s.Completion
		case "simgpt.count_tokens":
			countTok += s.dur()
		case "fasttext.embed":
			embed += s.dur()
			embedCalls++
		}
	}
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(d) / float64(n)
	}
	share := func(a, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(a) / float64(n)
	}
	return map[string]float64{
		"handler.collect_ms":          per(collect, incidents),
		"simgpt.summarize_ms":         per(summarize, incidents),
		"simgpt.predict_ms":           per(predictLLM, incidents),
		"simgpt.count_tokens_ms":      per(countTok, incidents),
		"simgpt.prompt_tokens":        share(prompt, incidents),
		"simgpt.completion_tokens":    share(completion, incidents),
		"fasttext.embed_ms":           per(embed, ops),
		"fasttext.embed_calls_per_op": share(embedCalls, ops),
		"core.predict_self_ms":        per(predSelf, incidents),
		"core.embed_cache_hit_share":  share(cacheHits, retrievals),
		"vectordb.retrieve_self_ms":   per(retSelf, retrievals),
		"feedback.learn_ms":           per(learn, verdicts),
	}
}
