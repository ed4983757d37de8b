package main

import (
	"fmt"
	"time"

	rcacopilot "repro"
	"repro/internal/core"
	"repro/internal/embed/fasttext"
	"repro/internal/feedback"
	"repro/internal/llm"
	"repro/internal/llm/simgpt"
)

// inproc is an in-process System assembled exactly as cmd/rcacopilotd
// assembles its own with default flags (gpt-4, seed 1, async learn queue
// 64, retry queue on), optionally with -wal-dir and the timed wrappers.
type inproc struct {
	sys    *rcacopilot.System
	corpus *rcacopilot.Corpus
	model  *fasttext.Model
	// Set-up phases, measured around each public call.
	corpusT, trainT, ingestT time.Duration
}

type inprocOptions struct {
	history int
	walDir  string
	model   *fasttext.Model // reuse a trained model instead of training
	tr      *tracer         // non-nil: wrap the chat client and the embedder
}

func newInproc(o inprocOptions) (*inproc, error) {
	p := &inproc{}
	t := time.Now()
	s := o.tr.begin("setup.corpus")
	corpus, err := rcacopilot.GenerateCorpusSpec(corpusSpec())
	o.tr.end(s)
	if err != nil {
		return nil, err
	}
	p.corpus, p.corpusT = corpus, time.Since(t)

	var chat llm.Client
	chat, err = simgpt.New(rcacopilot.ModelGPT4, simgpt.Options{Seed: corpusSeed})
	if err != nil {
		return nil, err
	}
	if o.tr != nil {
		chat = timedChat{inner: chat, tr: o.tr}
	}
	sys, err := rcacopilot.NewSystem(corpus.Fleet, rcacopilot.Config{
		Model: rcacopilot.ModelGPT4, Seed: corpusSeed, Chat: chat,
		AsyncLearnQueue: 64, WALDir: o.walDir,
	})
	if err != nil {
		return nil, err
	}
	p.sys = sys
	history := corpus.Incidents[:o.history]

	// System.TrainEmbedding is TrainSkipgram over the history's diagnostic
	// text plus SetEmbedder; it is spelled out here to time the two halves
	// and to attach the timed embedder.
	t = time.Now()
	s = o.tr.begin("setup.train")
	p.model = o.model
	if p.model == nil {
		texts := make([]string, len(history))
		for i, in := range history {
			texts[i] = in.DiagnosticText()
		}
		p.model, err = fasttext.TrainSkipgram(texts, fasttext.Config{Seed: corpusSeed})
	}
	o.tr.end(s)
	if err != nil {
		return nil, err
	}
	p.trainT = time.Since(t)
	var emb core.Embedder = core.FastTextEmbedder{Model: p.model}
	if o.tr != nil {
		emb = timedEmbedder{inner: emb, tr: o.tr}
	}
	s = o.tr.begin("setup.set_embedder")
	_, err = sys.Copilot().SetEmbedder(emb)
	o.tr.end(s)
	if err != nil {
		return nil, err
	}
	if n := sys.Copilot().Index().Len(); n != 0 {
		return nil, fmt.Errorf("in-process store at %s is not fresh (%d entries)", o.walDir, n)
	}

	t = time.Now()
	s = o.tr.begin("setup.ingest")
	err = sys.AddHistory(history)
	o.tr.end(s)
	if err != nil {
		return nil, err
	}
	p.ingestT = time.Since(t)
	if err := sys.Feedback().StartRetry(feedback.RetryConfig{}); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *inproc) close() {
	_ = p.sys.Feedback().Close()
	p.sys.Close()
}
