package vectordb

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// nsState is one non-default namespace's serving state over the shared
// shard geometry: its entry count, its own probe budget and quantized
// overfetch factor, and — when adaptive serving is enabled — its own
// recall-SLO controller. The default namespace ("") never gets an
// nsState: its serving state IS the root store's own fields, which is
// what keeps single-tenant behavior bit-identical to the pre-namespace
// store.
type nsState struct {
	ns    string
	count atomic.Int64
	// probes is the namespace's own probe budget (0 = exact fan-out —
	// namespaces do NOT inherit the root budget, so a fresh tenant serves
	// exact until tuned, the conservative default).
	probes atomic.Int64
	// overfetch is the namespace's quantized candidate factor; 0 inherits
	// the root store's.
	overfetch atomic.Int64
	qScans    atomic.Int64
	// tuner is the namespace's adaptive controller, nil until adaptive
	// serving is enabled on the store.
	tuner atomic.Pointer[Tuner]
	// saved carries this namespace's restored serving-state trailer until
	// a controller exists to absorb it (Load before EnableAdaptive).
	saved atomic.Pointer[tunerState]
}

// nsStateFor returns the namespace's serving state, creating it (and,
// when adaptive serving is on, its controller) on first touch. Only
// writers call it — Add, SetNamespaceProbes, and restoring persisted
// state — so reads never create tenant state. The default namespace has
// no nsState: callers receive nil and use the root store's fields.
func (s *Sharded) nsStateFor(ns string) *nsState {
	if ns == "" {
		return nil
	}
	if v, ok := s.nss.Load(ns); ok {
		return v.(*nsState)
	}
	st := &nsState{ns: ns}
	v, loaded := s.nss.LoadOrStore(ns, st)
	st = v.(*nsState)
	if !loaded {
		s.ensureNSTuner(st)
	}
	return st
}

// queryState resolves a query's scope to the namespace state governing its
// serving knobs — nil for unscoped queries and the default namespace, both
// of which use the root store's probes, overfetch and tuner — and reports
// whether the scope holds any entries at all. It never creates state: a
// query scoped to a namespace nothing was ever added to resolves to
// (nil, false).
func (s *Sharded) queryState(q *Query) (*nsState, bool) {
	switch {
	case !q.Scoped:
		return nil, s.count.Load() > 0
	case q.Namespace == "":
		return nil, s.defCount.Load() > 0
	}
	v, ok := s.nss.Load(q.Namespace)
	if !ok {
		return nil, false
	}
	st := v.(*nsState)
	return st, st.count.Load() > 0
}

// probesFor returns the effective probe budget for a resolved scope.
func (s *Sharded) probesFor(st *nsState) int {
	if st == nil {
		return int(s.probes.Load())
	}
	return int(st.probes.Load())
}

// overfetchFor returns the effective quantized overfetch factor for a
// resolved scope; a namespace that never escalated inherits the root's.
func (s *Sharded) overfetchFor(st *nsState) int {
	if st != nil {
		if v := int(st.overfetch.Load()); v > 0 {
			return v
		}
	}
	return s.Overfetch()
}

// tunerFor returns the adaptive controller observing a resolved scope's
// queries, or nil.
func (s *Sharded) tunerFor(st *nsState) *Tuner {
	if st == nil {
		return s.tuner.Load()
	}
	return st.tuner.Load()
}

// noteQuantScan accounts one quantized two-stage serve against the store
// total and, for namespace-scoped queries, the namespace's own counter.
func (s *Sharded) noteQuantScan(st *nsState) {
	s.qScans.Add(1)
	if st != nil {
		st.qScans.Add(1)
	}
}

// ensureNSTuner installs the namespace's adaptive controller if adaptive
// serving is enabled on the store, consuming any serving state a Load
// stashed for the namespace. Called when the state is created and again
// from EnableAdaptive for namespaces that already exist.
func (s *Sharded) ensureNSTuner(st *nsState) {
	cfgp := s.adaptiveCfg.Load()
	if cfgp == nil {
		return
	}
	cfg := *cfgp
	t := &Tuner{s: s, cfg: cfg, ns: st}
	if saved := st.saved.Swap(nil); saved != nil {
		t.restore(*saved)
	}
	if cfg.RecallTarget > 0 && st.probes.Load() == 0 {
		// Same cold-start seed as the root controller: cheapest budget,
		// grown by shadow evidence. Probe mode still requires IVF routing.
		st.probes.Store(1)
	}
	st.tuner.Store(t)
}

// SetNamespaceProbes pins one namespace's probe budget — the per-tenant
// form of SetProbes, with the same contract: 0 restores exact fan-out,
// negatives are rejected, and when the namespace has an adaptive
// controller the pin pauses it. ns = "" addresses the default namespace,
// i.e. the root store's budget.
func (s *Sharded) SetNamespaceProbes(ns string, p int) error {
	if ns == "" {
		return s.SetProbes(p)
	}
	if p < 0 {
		return fmt.Errorf("vectordb: negative probe count %d for namespace %q (use 0 for exact fan-out)", p, ns)
	}
	st := s.nsStateFor(ns)
	if t := st.tuner.Load(); t != nil {
		t.pinProbes(p)
		return nil
	}
	st.probes.Store(int64(p))
	return nil
}

// NamespaceProbes returns one namespace's effective probe budget (the
// root store's for ns = "").
func (s *Sharded) NamespaceProbes(ns string) int {
	if ns == "" {
		return s.Probes()
	}
	if v, ok := s.nss.Load(ns); ok {
		return int(v.(*nsState).probes.Load())
	}
	return 0
}

// NamespaceStats is one namespace's serving snapshot — the per-tenant
// metrics row the daemon exports.
type NamespaceStats struct {
	// Namespace is the tenant tag; "" is the default namespace (whose
	// serving state is the root store's own).
	Namespace string
	// Entries is how many stored entries carry the tag.
	Entries int
	// Probes and Overfetch are the namespace's effective serving budget.
	Probes    int
	Overfetch int
	// ObservedRecall / RecallSamples / Shadows / Retrains mirror the
	// namespace controller's aggregates; zero without adaptive serving.
	ObservedRecall float64
	RecallSamples  int
	Shadows        int
	Retrains       int
	// QuantScans counts quantized two-stage serves of the namespace's
	// queries (for the default row: the store-wide total).
	QuantScans int
}

// NamespaceStats returns every namespace's serving snapshot, default
// namespace first, the rest sorted by name.
func (s *Sharded) NamespaceStats() []NamespaceStats {
	def := NamespaceStats{
		Entries:    int(s.defCount.Load()),
		Probes:     s.Probes(),
		Overfetch:  s.Overfetch(),
		QuantScans: s.QuantizedScans(),
	}
	if t := s.tuner.Load(); t != nil {
		def.ObservedRecall, def.RecallSamples = t.ObservedRecall()
		def.Shadows, def.Retrains = t.Shadows(), t.Retrains()
	}
	out := []NamespaceStats{def}
	s.nss.Range(func(_, v any) bool {
		st := v.(*nsState)
		row := NamespaceStats{
			Namespace:  st.ns,
			Entries:    int(st.count.Load()),
			Probes:     int(st.probes.Load()),
			Overfetch:  s.overfetchFor(st),
			QuantScans: int(st.qScans.Load()),
		}
		if t := st.tuner.Load(); t != nil {
			row.ObservedRecall, row.RecallSamples = t.ObservedRecall()
			row.Shadows, row.Retrains = t.Shadows(), t.Retrains()
		}
		out = append(out, row)
		return true
	})
	sort.Slice(out[1:], func(i, j int) bool { return out[1+i].Namespace < out[1+j].Namespace })
	return out
}
