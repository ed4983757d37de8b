package vectordb

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/incident"
)

// Batcher is the serving-side micro-batcher: an Index decorator that
// coalesces concurrent one-query Search calls into batched Search
// executions on the wrapped store. A dispatcher goroutine collects queries
// into a time/size-bounded window — flushing when maxBatch queries have
// accumulated or the oldest has waited maxWait, whichever comes first —
// and a query that finds the collector empty with no follower queued is
// flushed alone at once (no timer wait), so idle-traffic p50 latency is
// unchanged and batching engages exactly when concurrency makes it
// profitable. A Search of several queries is already a batch and passes
// straight through; all other Index methods delegate to the wrapped
// store.
//
// The request channel is unbuffered on purpose: a send succeeds only when
// the dispatcher is receiving, so callers that arrive while a batch
// executes block in a select that also watches the shutdown signal —
// after Close no query can strand in a queue nobody drains; it just
// serves directly.
type Batcher struct {
	idx      Index
	maxBatch int
	maxWait  time.Duration

	reqs chan *batchReq
	stop chan struct{} // closed by Close to stop the dispatcher
	done chan struct{} // closed by the dispatcher on exit

	batches    atomic.Int64
	queries    atomic.Int64
	flushIdle  atomic.Int64
	flushSize  atomic.Int64
	flushTimer atomic.Int64
}

var _ Index = (*Batcher)(nil)

type batchReq struct {
	q   Query
	out chan batchResp
}

type batchResp struct {
	scs []Scored
	err error
}

// BatcherStats is a point-in-time snapshot of batch formation, exported
// on the daemon's /metrics surface.
type BatcherStats struct {
	// Batches is the number of flushes executed (including idle
	// single-query flushes, which are batches of occupancy 1).
	Batches int64
	// Queries is the number of queries served through the collector.
	Queries int64
	// FlushIdle counts idle single-query flushes (collector empty, no
	// follower queued).
	FlushIdle int64
	// FlushSize counts flushes triggered by reaching maxBatch.
	FlushSize int64
	// FlushTimer counts flushes triggered by the maxWait deadline.
	FlushTimer int64
	// MeanOccupancy is Queries/Batches — 1.0 under idle traffic, rising
	// toward maxBatch as concurrency saturates the collector.
	MeanOccupancy float64
}

// NewBatcher wraps idx with a micro-batching collector: at most maxBatch
// queries per flush (must be >= 2 — a 1-query batcher is the identity and
// should just not be constructed), each waiting at most maxWait for
// companions. The dispatcher goroutine runs until Close.
func NewBatcher(idx Index, maxBatch int, maxWait time.Duration) (*Batcher, error) {
	if maxBatch < 2 {
		return nil, fmt.Errorf("vectordb: batcher max batch %d must be >= 2", maxBatch)
	}
	if maxWait <= 0 {
		return nil, fmt.Errorf("vectordb: batcher max wait %v must be positive", maxWait)
	}
	b := &Batcher{
		idx:      idx,
		maxBatch: maxBatch,
		maxWait:  maxWait,
		reqs:     make(chan *batchReq),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.dispatch()
	return b, nil
}

// Close stops the dispatcher. Queries in flight complete; later
// searches go directly to the wrapped store. Idempotent.
func (b *Batcher) Close() {
	select {
	case <-b.stop:
	default:
		close(b.stop)
	}
	<-b.done
}

// Unwrap returns the wrapped Index (used by AsSharded to reach the
// sharded store through decorator layers).
func (b *Batcher) Unwrap() Index { return b.idx }

// Stats returns a snapshot of batch-formation counters.
func (b *Batcher) Stats() BatcherStats {
	st := BatcherStats{
		Batches:    b.batches.Load(),
		Queries:    b.queries.Load(),
		FlushIdle:  b.flushIdle.Load(),
		FlushSize:  b.flushSize.Load(),
		FlushTimer: b.flushTimer.Load(),
	}
	if st.Batches > 0 {
		st.MeanOccupancy = float64(st.Queries) / float64(st.Batches)
	}
	return st
}

// AsSharded unwraps decorator layers (Batcher, and any future wrapper
// exposing Unwrap() Index) down to the sharded store, if one is at the
// bottom. The daemon's tuning/metrics surfaces use it to reach
// Sharded-only knobs through a batched index.
func AsSharded(idx Index) (*Sharded, bool) {
	for idx != nil {
		switch v := idx.(type) {
		case *Sharded:
			return v, true
		case interface{ Unwrap() Index }:
			idx = v.Unwrap()
		default:
			return nil, false
		}
	}
	return nil, false
}

// dispatch is the collector loop: receive one query, drain any
// already-blocked companions, then either serve immediately (idle fast
// path, occupancy 1), flush at maxBatch, or hold the window open up to
// maxWait.
func (b *Batcher) dispatch() {
	defer close(b.done)
	for {
		select {
		case <-b.stop:
			return
		case r := <-b.reqs:
			batch := b.collect(r)
			b.execute(batch)
		}
	}
}

// collect assembles one flush window starting from the first received
// query and accounts the flush reason.
func (b *Batcher) collect(first *batchReq) []*batchReq {
	batch := append(make([]*batchReq, 0, b.maxBatch), first)
	// Drain companions already blocked on send — callers that arrived
	// while the previous batch executed.
drain:
	for len(batch) < b.maxBatch {
		select {
		case r := <-b.reqs:
			batch = append(batch, r)
		default:
			break drain
		}
	}
	switch {
	case len(batch) == b.maxBatch:
		b.flushSize.Add(1)
	case len(batch) == 1:
		// Idle: nobody else is waiting — serve now rather than holding a
		// lone query hostage to the window timer.
		b.flushIdle.Add(1)
	default:
		// Partial window: hold it open for up to maxWait from now.
		timer := time.NewTimer(b.maxWait)
	fill:
		for len(batch) < b.maxBatch {
			select {
			case r := <-b.reqs:
				batch = append(batch, r)
			case <-timer.C:
				break fill
			}
		}
		if len(batch) == b.maxBatch {
			timer.Stop()
			b.flushSize.Add(1)
		} else {
			b.flushTimer.Add(1)
		}
	}
	b.batches.Add(1)
	b.queries.Add(int64(len(batch)))
	return batch
}

// execute serves one flush as one Search on the wrapped store, fanning
// per-query results back out.
func (b *Batcher) execute(batch []*batchReq) {
	queries := make([]Query, len(batch))
	for i, r := range batch {
		queries[i] = r.q
	}
	out, err := b.idx.Search(queries)
	for i, r := range batch {
		if err != nil {
			r.out <- batchResp{err: err}
		} else {
			r.out <- batchResp{scs: out[i]}
		}
	}
}

// Search routes a one-query call through the micro-batching collector
// (directly to the wrapped store once the batcher is closed) and passes
// larger batches straight through. Results are bit-identical either way
// (see the Search batching contract).
func (b *Batcher) Search(queries []Query) ([][]Scored, error) {
	if len(queries) != 1 {
		return b.idx.Search(queries)
	}
	// A malformed query would fail every query it is batched with.
	if err := checkQuery(b.idx.Dim(), &queries[0]); err != nil {
		return nil, fmt.Errorf("vectordb: batch query 0: %w", err)
	}
	r := &batchReq{q: queries[0], out: make(chan batchResp, 1)}
	select {
	case b.reqs <- r:
		resp := <-r.out
		if resp.err != nil {
			return nil, resp.err
		}
		return [][]Scored{resp.scs}, nil
	case <-b.done:
		return b.idx.Search(queries)
	}
}

// Dim returns the wrapped store's vector dimensionality.
func (b *Batcher) Dim() int { return b.idx.Dim() }

// Len returns the wrapped store's entry count.
func (b *Batcher) Len() int { return b.idx.Len() }

// Add stores an entry in the wrapped store.
func (b *Batcher) Add(e Entry) error { return b.idx.Add(e) }

// Get returns the entry with the given ID from the wrapped store.
func (b *Batcher) Get(id string) (Entry, bool) { return b.idx.Get(id) }

// Categories returns the wrapped store's sorted distinct categories.
func (b *Batcher) Categories() []incident.Category { return b.idx.Categories() }

// CountByCategory returns the wrapped store's per-category counts.
func (b *Batcher) CountByCategory() map[incident.Category]int { return b.idx.CountByCategory() }

// Save serializes the wrapped store.
func (b *Batcher) Save(w io.Writer) error { return b.idx.Save(w) }

// Load replaces the wrapped store's contents.
func (b *Batcher) Load(r io.Reader) error { return b.idx.Load(r) }
