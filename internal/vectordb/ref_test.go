package vectordb

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/incident"
)

// refStore is the test suite's independent oracle: a plain slice of
// entries that answers every query by scoring each entry the query's scope
// admits and fully sorting them. It shares no scan, selection or merge
// code with Sharded — only the similarity formula and the retrieval order
// (ranksAfter) — so agreement between the two is evidence, not tautology.
type refStore struct {
	mu      sync.RWMutex
	dim     int
	entries []Entry
	ids     map[string]bool
}

var _ Index = (*refStore)(nil)

func newRef(dim int) *refStore { return &refStore{dim: dim, ids: make(map[string]bool)} }

func (r *refStore) Dim() int { return r.dim }

func (r *refStore) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// nsLen counts the entries tagged ns.
func (r *refStore) nsLen(ns string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, e := range r.entries {
		if e.Namespace == ns {
			n++
		}
	}
	return n
}

func (r *refStore) Add(e Entry) error {
	if err := validateEntry(r.dim, e); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ids[e.ID] {
		return fmt.Errorf("vectordb: duplicate entry ID %s", e.ID)
	}
	r.ids[e.ID] = true
	e.Vector = append([]float64(nil), e.Vector...)
	r.entries = append(r.entries, e)
	return nil
}

func (r *refStore) Get(id string) (Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.entries {
		if e.ID == id {
			e.Vector = append([]float64(nil), e.Vector...)
			return e, true
		}
	}
	return Entry{}, false
}

func (r *refStore) CountByCategory() map[incident.Category]int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[incident.Category]int)
	for _, e := range r.entries {
		out[e.Category]++
	}
	return out
}

func (r *refStore) Categories() []incident.Category {
	return sortedCategories(r.CountByCategory())
}

// Save writes the snapshot in insertion order with no serving-state
// trailer — the shape of a file from before the trailer existed.
func (r *refStore) Save(w io.Writer) error {
	r.mu.RLock()
	snap := snapshot{Dim: r.dim, Entries: append([]Entry(nil), r.entries...)}
	r.mu.RUnlock()
	return gob.NewEncoder(w).Encode(snap)
}

func (r *refStore) Load(rd io.Reader) error {
	snap, err := decodeSnapshot(gob.NewDecoder(rd), r.dim)
	if err != nil {
		return err
	}
	ids := make(map[string]bool, len(snap.Entries))
	for _, e := range snap.Entries {
		ids[e.ID] = true
	}
	r.mu.Lock()
	r.entries, r.ids = snap.Entries, ids
	r.mu.Unlock()
	return nil
}

func (r *refStore) Search(queries []Query) ([][]Scored, error) {
	for i := range queries {
		if err := checkQuery(r.dim, &queries[i]); err != nil {
			return nil, fmt.Errorf("vectordb: batch query %d: %w", i, err)
		}
	}
	out := make([][]Scored, len(queries))
	for i := range queries {
		q := &queries[i]
		scored := r.scoreAllSorted(q)
		if q.Diverse {
			out[i] = sortTopKDiverse(scored, q.K)
		} else {
			out[i] = sortTopK(scored, q.K)
		}
	}
	return out, nil
}

// scoreAllSorted scores every entry the query's scope admits and sorts
// them into retrieval order.
func (r *refStore) scoreAllSorted(q *Query) []Scored {
	r.mu.RLock()
	scored := make([]Scored, 0, len(r.entries))
	for _, e := range r.entries {
		if q.Scoped && e.Namespace != q.Namespace {
			continue
		}
		d, s := Similarity(q.Vector, q.Time, e, q.Alpha)
		e.Vector = append([]float64(nil), e.Vector...)
		scored = append(scored, Scored{Entry: e, Distance: d, Similarity: s})
	}
	r.mu.RUnlock()
	sort.Slice(scored, func(i, j int) bool { return ranksAfter(scored[j], scored[i]) })
	return scored
}

// sortTopK is the full-sort reference of a plain query: the first k.
func sortTopK(scored []Scored, k int) []Scored {
	if len(scored) > k {
		scored = scored[:k]
	}
	return scored
}

// sortTopKDiverse is the full-sort reference of a diverse query: walk the
// sorted list taking the first (best) occurrence of each category.
func sortTopKDiverse(scored []Scored, k int) []Scored {
	seen := make(map[incident.Category]bool)
	out := make([]Scored, 0, k)
	for _, s := range scored {
		if seen[s.Entry.Category] {
			continue
		}
		seen[s.Entry.Category] = true
		out = append(out, s)
		if len(out) == k {
			break
		}
	}
	return out
}

// search1 runs one query through idx.Search.
func search1(idx Index, q Query) ([]Scored, error) {
	out, err := idx.Search([]Query{q})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// topK is a one-query plain search over every entry.
func topK(idx Index, v []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return search1(idx, Query{Vector: v, Time: qt, K: k, Alpha: alpha})
}

// topKDiverse is a one-query diverse search over every entry.
func topKDiverse(idx Index, v []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return search1(idx, Query{Vector: v, Time: qt, K: k, Alpha: alpha, Diverse: true})
}

// topKIn is topK scoped to namespace ns.
func topKIn(idx Index, ns string, v []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return search1(idx, Query{Vector: v, Time: qt, K: k, Alpha: alpha, Namespace: ns, Scoped: true})
}

// topKDiverseIn is topKDiverse scoped to namespace ns.
func topKDiverseIn(idx Index, ns string, v []float64, qt time.Time, k int, alpha float64) ([]Scored, error) {
	return search1(idx, Query{Vector: v, Time: qt, K: k, Alpha: alpha, Diverse: true, Namespace: ns, Scoped: true})
}

// nsLen counts idx's entries tagged ns: the reference store counts its
// slice, a sharded store (through any decorator) reports NamespaceStats.
func nsLen(idx Index, ns string) int {
	if r, ok := idx.(*refStore); ok {
		return r.nsLen(ns)
	}
	s, ok := AsSharded(idx)
	if !ok {
		panic(fmt.Sprintf("nsLen: %T has no namespace inventory", idx))
	}
	for _, st := range s.NamespaceStats() {
		if st.Namespace == ns {
			return st.Entries
		}
	}
	return 0
}
