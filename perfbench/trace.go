package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
)

// span is one timed call into a layer. Parent is the index of the span
// that was open when it started (-1 for none); Op is the replayed
// operation it belongs to (-1 for set-up).
type span struct {
	Name       string `json:"name"`
	Op         int    `json:"op"`
	Parent     int    `json:"parent"`
	Start      int64  `json:"startNs"`
	End        int64  `json:"endNs"`
	Prompt     int    `json:"promptTokens,omitempty"`
	Completion int    `json:"completionTokens,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. The replay
// runs one operation at a time, so the open-span stack is the one causal
// chain; leaf spans from the wrappers (possibly from worker goroutines
// during set-up ingest) attach to the innermost open span.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	open  []int // stack of open span indexes
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span under the innermost open one. Nil-safe, like end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.parent(), Start: t.since(time.Now())})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.since(now)
	t.open = t.open[:len(t.open)-1]
}

// beginOp starts replayed operation n with its root span.
func (t *tracer) beginOp(n int, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.op = n
	t.mu.Unlock()
	return t.begin(name)
}

func (t *tracer) leaf(name string, start, end time.Time, prompt, completion int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: t.parent(),
		Start: t.since(start), End: t.since(end), Prompt: prompt, Completion: completion})
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedChat is an llm.Client recording a span per Complete and CountTokens
// call; it is passed to the System as Config.Chat.
type timedChat struct {
	inner llm.Client
	tr    *tracer
}

func (c timedChat) Name() string       { return c.inner.Name() }
func (c timedChat) ContextWindow() int { return c.inner.ContextWindow() }

func (c timedChat) CountTokens(text string) int {
	t := time.Now()
	n := c.inner.CountTokens(text)
	c.tr.leaf("simgpt.count_tokens", t, time.Now(), 0, 0)
	return n
}

func (c timedChat) Complete(req llm.Request) (llm.Response, error) {
	t := time.Now()
	resp, err := c.inner.Complete(req)
	c.tr.leaf("simgpt.complete", t, time.Now(), resp.PromptTokens, resp.CompletionTokens)
	return resp, err
}

func (c timedChat) Embed(text string) ([]float64, error) {
	t := time.Now()
	v, err := c.inner.Embed(text)
	c.tr.leaf("simgpt.embed", t, time.Now(), 0, 0)
	return v, err
}

// timedEmbedder is a core.Embedder recording a span per Embed call; it is
// attached with Copilot().SetEmbedder.
type timedEmbedder struct {
	inner core.Embedder
	tr    *tracer
}

func (e timedEmbedder) Dim() int { return e.inner.Dim() }

func (e timedEmbedder) Embed(text string) ([]float64, error) {
	t := time.Now()
	v, err := e.inner.Embed(text)
	e.tr.leaf("fasttext.embed", t, time.Now(), 0, 0)
	return v, err
}
