package vectordb

import (
	"fmt"
	"math"
	"time"

	"repro/internal/incident"
	"repro/internal/parallel"
)

// inlineScanMax is the scan volume — stored entries times queries — at or
// below which Search walks its shards in sequence on the calling goroutine
// instead of fanning out on the worker pool. It is the former small-store
// diverse path's threshold; at the daemon's sizes (BenchmarkSearchOne, 2
// CPUs) fanning out measured no faster, and it costs goroutine handoffs.
const inlineScanMax = 4096

// shardScan is one shard's work item in a Search call: the queries
// (indexes into the call's batch) that selected the shard.
type shardScan struct {
	sh      *shard
	members []int
}

// Search serves a batch of queries — each with its own vector, anchor
// time, k, decay, diversity flag and namespace scope — in one pass. Probe
// selection runs per query (each under its scope's budget), shards are
// visited in the union of the per-query selections, and each selected
// shard's backing (columnar floats, or the int8 sidecar on the quantized
// path) is scanned ONCE for all the queries that selected it. Each query
// consumes rows only from shards its own budget selected and applies
// exactly its own per-row arithmetic, so out[i] is bit-identical to
// searching queries[i] alone, whatever else shares the batch.
//
// A query whose scope holds no entries — an empty store, or a namespace
// nothing was added to — returns an empty result without scanning and
// without creating any serving state. A malformed query fails the call.
func (s *Sharded) Search(queries []Query) ([][]Scored, error) {
	return s.search(queries, false)
}

// search is Search; exact forces probing off and skips the tuner hook —
// the oracle path the tuner's shadow queries measure served results
// against.
func (s *Sharded) search(queries []Query, exact bool) ([][]Scored, error) {
	for i := range queries {
		if err := checkQuery(s.dim, &queries[i]); err != nil {
			return nil, fmt.Errorf("vectordb: batch query %d: %w", i, err)
		}
	}
	out := make([][]Scored, len(queries))
	s.mu.RLock()
	defer s.mu.RUnlock()
	draining, current := s.liveShards()
	all := current
	if draining != nil {
		// Rebalance in flight: exact over both generations, the draining
		// one first. Copy-before-clear migration guarantees every entry is
		// seen at least once; the merge collapses the at-most-twice case.
		all = append(append([]*shard(nil), draining...), current...)
	}

	// Plan: resolve each query's scope, select its shards (the probe
	// ranking under its scope's budget, or every shard), and group the
	// selections into one scan per shard. ofs[qi] > 0 marks a query served
	// by the quantized two-stage scan with that overfetch factor.
	quantOn := s.quantized.Load()
	states := make([]*nsState, len(queries))
	live := make([]bool, len(queries))
	probed := make([]bool, len(queries))
	ofs := make([]int, len(queries))
	var scans []shardScan
	for qi := range queries {
		q := &queries[qi]
		st, ok := s.queryState(q)
		if !ok {
			out[qi] = []Scored{}
			continue
		}
		states[qi], live[qi] = st, true
		sel := all
		if draining == nil && !exact {
			if p := s.probeShards(s.gen, q.Vector, q.Time, q.Alpha, s.probesFor(st)); p != nil {
				sel, probed[qi] = p, true
				if quantOn {
					ofs[qi] = s.overfetchFor(st)
					s.noteQuantScan(st)
				}
			}
		}
		for _, sh := range sel {
			scans = nominate(scans, sh, qi)
		}
	}

	workers := 0
	if int(s.count.Load())*len(queries) <= inlineScanMax {
		workers = 1
	}
	results, err := parallel.Map(len(scans), workers, func(i int) ([][]Scored, error) {
		return scans[i].sh.search(queries, scans[i].members, ofs), nil
	})
	if err != nil {
		return nil, err
	}

	// Merge each query's per-shard results under the total retrieval order.
	parts := make([][][]Scored, len(queries))
	for i, sc := range scans {
		for j, qi := range sc.members {
			parts[qi] = append(parts[qi], results[i][j])
		}
	}
	for qi := range queries {
		if live[qi] {
			out[qi] = merge(&queries[qi], parts[qi], draining != nil)
		}
	}
	// Feed every served query to its scope's controller (never
	// mid-rebalance: those queries are exact already), so each tenant's
	// observed recall measures exactly what it was served.
	if draining == nil && !exact {
		for qi := range queries {
			if !live[qi] {
				continue
			}
			if t := s.tunerFor(states[qi]); t != nil {
				t.observeQuery(queries[qi], out[qi], probed[qi])
			}
		}
	}
	return out, nil
}

// nominate adds query qi to sh's scan, opening one if sh has none yet.
func nominate(scans []shardScan, sh *shard, qi int) []shardScan {
	for i := range scans {
		if scans[i].sh == sh {
			scans[i].members = append(scans[i].members, qi)
			return scans
		}
	}
	return append(scans, shardScan{sh: sh, members: []int{qi}})
}

// merge combines one query's per-shard local results into its final
// best-first top k. Plain queries merge through one bounded heap; diverse
// ones keep each category's best-ranked candidate first (keep-best is
// commutative, associative and idempotent under the total order, so shard
// order and mid-rebalance duplicates cannot change it). dedup collapses
// an entry seen in both generations of a draining rebalance.
func merge(q *Query, parts [][]Scored, dedup bool) []Scored {
	if len(parts) == 1 {
		return parts[0] // already this query's best-first top k
	}
	h := make(worstFirst, 0, q.K+1)
	if q.Diverse {
		best := make(map[incident.Category]Scored)
		for _, p := range parts {
			for _, sc := range p {
				if cur, ok := best[sc.Entry.Category]; !ok || ranksAfter(cur, sc) {
					best[sc.Entry.Category] = sc
				}
			}
		}
		for _, sc := range best {
			h.offer(sc, q.K)
		}
		return h.drain()
	}
	var seen map[string]bool
	if dedup {
		seen = make(map[string]bool, 2*q.K)
	}
	for _, p := range parts {
		for _, sc := range p {
			if seen != nil {
				if seen[sc.Entry.ID] {
					continue
				}
				seen[sc.Entry.ID] = true
			}
			h.offer(sc, q.K)
		}
	}
	return h.drain()
}

// selection is one query's running result within one shard scan: a
// bounded heap for plain queries; for diverse ones, the best row per
// category (bests, indexed by category through cat), kept as row
// references so only the final top k become Entry copies.
type selection struct {
	k     int
	heap  worstFirst
	cat   map[incident.Category]int
	bests []catBest
}

// catBest is a diverse selection's best row so far in one category.
type catBest struct {
	row       int
	dist, sim float64
}

func newSelection(q *Query) selection {
	if q.Diverse {
		return selection{k: q.K, cat: make(map[incident.Category]int)}
	}
	return selection{k: q.K, heap: make(worstFirst, 0, q.K+1)}
}

// skips reports whether a row of category cat whose similarity is at most
// bound cannot enter the selection, so the scan can skip its distance:
// sim = decay/(1+dist) <= decay, so a decay already below the heap root
// (plain) or the category's best (diverse) loses whatever the distance.
func (a *selection) skips(bound float64, cat incident.Category) bool {
	if a.cat != nil {
		j, ok := a.cat[cat]
		return ok && bound < a.bests[j].sim
	}
	return len(a.heap) == a.k && bound < a.heap[0].Similarity
}

// offer adds row i of sh (caller holds sh.mu) with its distance and
// similarity, keeping the selection's retrieval-order invariant.
func (a *selection) offer(sh *shard, i int, dist, sim float64) {
	e := &sh.entries[i]
	if a.cat == nil {
		a.heap.offerRow(sh, i, dist, sim, a.k)
		return
	}
	j, ok := a.cat[e.Category]
	if !ok {
		a.cat[e.Category] = len(a.bests)
		a.bests = append(a.bests, catBest{row: i, dist: dist, sim: sim})
	} else if b := &a.bests[j]; b.sim < sim || (b.sim == sim && sh.entries[b.row].ID > e.ID) {
		*b = catBest{row: i, dist: dist, sim: sim}
	}
}

// offerRow offers row i of sh to the bounded heap, checking the heap's
// own eviction order before the Entry copy: most rows cannot displace the
// root.
func (h *worstFirst) offerRow(sh *shard, i int, dist, sim float64, k int) {
	if len(*h) == k {
		if r := &(*h)[0]; r.Similarity > sim || (r.Similarity == sim && r.Entry.ID < sh.entries[i].ID) {
			return
		}
	}
	h.offer(Scored{Entry: sh.entries[i], Distance: dist, Similarity: sim}, k)
}

// result returns the selection's best-first top k with vectors
// materialized (caller holds sh.mu). For a diverse query that is the top
// k of its per-category bests; truncating there is exact, because a
// category whose best in this shard ranks below k other categories' bests
// here ranks below those k categories in the merged result too.
func (a *selection) result(sh *shard) []Scored {
	h := a.heap
	if a.cat != nil {
		h = make(worstFirst, 0, a.k+1)
		for _, b := range a.bests {
			h.offerRow(sh, b.row, b.dist, b.sim, a.k)
		}
	}
	for i := range h {
		h[i].Entry.Vector = append([]float64(nil), sh.row(sh.byID[h[i].Entry.ID])...)
	}
	return h.drain()
}

// search walks the shard's backing once for the member queries (indexes
// into queries) and returns each member's local result (see
// selection.result). Members with ofs[qi] > 0 take the quantized
// two-stage scan; the rest — and all of them while the sidecar is missing
// or momentarily out of sync with the rows — stream the float rows.
func (sh *shard) search(queries []Query, members []int, ofs []int) [][]Scored {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sels := make([]selection, len(members))
	var floatM, quantM []int // positions in members
	synced := sh.quant != nil && len(sh.quant.codes) == len(sh.entries)*sh.dim
	for j, qi := range members {
		sels[j] = newSelection(&queries[qi])
		if ofs[qi] > 0 && synced {
			quantM = append(quantM, j)
		} else {
			floatM = append(floatM, j)
		}
	}
	if len(floatM) > 0 {
		sh.scanFloat(queries, members, floatM, sels)
	}
	if len(quantM) > 0 {
		sh.scanQuantized(queries, members, quantM, ofs, sels)
	}
	out := make([][]Scored, len(members))
	for j := range sels {
		out[j] = sels[j].result(sh)
	}
	return out
}

// scanFloat is one walk of the columnar float rows, every member query
// scoring each row into its own selection. Caller holds sh.mu.
func (sh *shard) scanFloat(queries []Query, members, floatM []int, sels []selection) {
	if len(floatM) == 1 {
		// A lone query needs none of the grouping below: one tight loop.
		q, a := &queries[members[floatM[0]]], &sels[floatM[0]]
		for i := range sh.entries {
			e := &sh.entries[i]
			if !q.sees(e.Namespace) {
				continue
			}
			decay := decayAt(q.Time, e.Time, q.Alpha)
			if a.skips(decay, e.Category) {
				continue
			}
			d := Distance(q.Vector, sh.row(i))
			a.offer(sh, i, d, 1/(1+d)*decay)
		}
		return
	}
	// Queries with an identical (Time, Alpha) pair — a flush anchored at
	// one clock reading — share every row's decay factor, so group them
	// and compute exp(-α·Δt) once per row per group instead of once per
	// row per query. The similarity is the same two-operand product
	// either way (struct-equal Times subtract identically), so grouping
	// cannot change a bit of any result.
	type decayGroup struct {
		qt    time.Time
		alpha float64
		js    []int // positions in members
	}
	var groups []decayGroup
	for _, j := range floatM {
		q := &queries[members[j]]
		g := len(groups)
		for x := range groups {
			if groups[x].qt == q.Time && groups[x].alpha == q.Alpha {
				g = x
				break
			}
		}
		if g == len(groups) {
			groups = append(groups, decayGroup{qt: q.Time, alpha: q.Alpha})
		}
		groups[g].js = append(groups[g].js, j)
	}
	pend := make([]int, 0, len(floatM))
	for i := range sh.entries {
		e := &sh.entries[i]
		row := sh.row(i)
		for gi := range groups {
			g := &groups[gi]
			decay := decayAt(g.qt, e.Time, g.alpha)
			pend = pend[:0]
			for _, j := range g.js {
				if queries[members[j]].sees(e.Namespace) && !sels[j].skips(decay, e.Category) {
					pend = append(pend, j)
				}
			}
			// Distances for the row's contenders, four queries per pass:
			// the four accumulator chains are independent, so the CPU
			// overlaps the additions a lone Distance call serializes.
			// Each chain keeps Distance's dimension order, so every
			// query's value is bit-identical to its scalar scan.
			base := 0
			for ; base+4 <= len(pend); base += 4 {
				j0, j1, j2, j3 := pend[base], pend[base+1], pend[base+2], pend[base+3]
				d0, d1, d2, d3 := distance4(
					queries[members[j0]].Vector, queries[members[j1]].Vector,
					queries[members[j2]].Vector, queries[members[j3]].Vector, row)
				sels[j0].offer(sh, i, d0, 1/(1+d0)*decay)
				sels[j1].offer(sh, i, d1, 1/(1+d1)*decay)
				sels[j2].offer(sh, i, d2, 1/(1+d2)*decay)
				sels[j3].offer(sh, i, d3, 1/(1+d3)*decay)
			}
			for _, j := range pend[base:] {
				d := Distance(queries[members[j]].Vector, row)
				sels[j].offer(sh, i, d, 1/(1+d)*decay)
			}
		}
	}
}

// distance4 computes four queries' Euclidean distances to one row in a
// single pass over the dimensions. Each accumulator sums in exactly
// Distance's order — the four chains are merely independent, letting the
// CPU pipeline additions that a scalar call serializes — so every result
// is bit-identical to Distance on the same pair.
func distance4(a0, a1, a2, a3, row []float64) (d0, d1, d2, d3 float64) {
	var s0, s1, s2, s3 float64
	for i := range row {
		r := row[i]
		t0 := a0[i] - r
		s0 += t0 * t0
		t1 := a1[i] - r
		s1 += t1 * t1
		t2 := a2[i] - r
		s2 += t2 * t2
		t3 := a3[i] - r
		s3 += t3 * t3
	}
	return math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)
}
