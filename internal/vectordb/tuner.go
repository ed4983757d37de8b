package vectordb

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
)

// AutoConfig parameterizes the adaptive serving controller
// (Sharded.EnableAdaptive). Two independent loops can be enabled:
//
//   - Recall-SLO auto-tuning (RecallTarget > 0): a fraction of live
//     queries is shadowed with an exact fan-out off the
//     hot path, observed recall@k feeds a controller, and the effective
//     probe budget grows or shrinks to hold the target.
//   - Skew-triggered retraining (RetrainSkew >= 1): per-shard imbalance
//     (max/mean of ShardLens) and centroid drift (mean assignment distance
//     of recent inserts vs the quantizer's training distortion) are checked
//     as entries stream in, and the online TrainIVF is kicked automatically
//     — rate-limited — once either ratio crosses the threshold.
//
// At least one loop must be enabled.
type AutoConfig struct {
	// RecallTarget is the recall@k SLO the probe controller holds, in
	// (0, 1] — e.g. 0.95. 0 disables the auto-tuner (retrain-only config).
	RecallTarget float64
	// ShadowRate is the fraction of live queries sampled for an exact
	// shadow comparison, in (0, 1]. Default 0.05 (one query in twenty).
	ShadowRate float64
	// Window is how many recall samples the controller aggregates per
	// grow/shrink decision. Default 8.
	Window int
	// RetrainSkew enables skew-triggered retraining when >= 1: TrainIVF is
	// kicked once max/mean of ShardLens — or the drift ratio of recent
	// inserts' centroid distance over the training distortion — reaches
	// this value. Both are dimensionless "how far above balanced" ratios,
	// so one knob governs them. 0 disables auto-retraining.
	RetrainSkew float64
	// MinRetrainInterval rate-limits automatic retrains. Default 1 minute.
	MinRetrainInterval time.Duration
	// RetrainCheckEvery is how many Adds elapse between skew checks (the
	// check itself runs off the insert path). Default 64.
	RetrainCheckEvery int
	// Now overrides the clock the retrain rate limiter reads (tests,
	// simulations). Default time.Now.
	Now func() time.Time
}

func (c AutoConfig) withDefaults() AutoConfig {
	if c.RecallTarget > 0 && c.ShadowRate == 0 {
		c.ShadowRate = 0.05
	}
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.MinRetrainInterval == 0 {
		c.MinRetrainInterval = time.Minute
	}
	if c.RetrainCheckEvery <= 0 {
		c.RetrainCheckEvery = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

func (c AutoConfig) validate() error {
	if c.RecallTarget < 0 || c.RecallTarget > 1 {
		return fmt.Errorf("vectordb: RecallTarget %v outside [0, 1]", c.RecallTarget)
	}
	if c.ShadowRate < 0 || c.ShadowRate > 1 {
		return fmt.Errorf("vectordb: ShadowRate %v outside [0, 1]", c.ShadowRate)
	}
	if c.RetrainSkew != 0 && c.RetrainSkew < 1 {
		return fmt.Errorf("vectordb: RetrainSkew %v must be 0 (off) or >= 1 (a max/mean ratio)", c.RetrainSkew)
	}
	if c.RecallTarget == 0 && c.RetrainSkew == 0 {
		return fmt.Errorf("vectordb: adaptive config enables neither the recall tuner (RecallTarget) nor auto-retrain (RetrainSkew)")
	}
	if c.MinRetrainInterval < 0 {
		return fmt.Errorf("vectordb: negative MinRetrainInterval %v", c.MinRetrainInterval)
	}
	return nil
}

// Tuner is the adaptive serving controller of a Sharded store: it closes
// the loop between observed probe quality and the serving configuration.
// Construct it with Sharded.EnableAdaptive; all methods are safe for
// concurrent use.
type Tuner struct {
	s   *Sharded
	cfg AutoConfig
	// ns binds the controller to one non-default namespace's serving state
	// (its own probe budget, overfetch pool, and shadow window over the
	// shared shard geometry); nil is the root/default-namespace controller
	// — the pre-namespace behavior. Per-namespace controllers are created
	// on first namespace touch while adaptive serving is enabled
	// (Sharded.ensureNSTuner).
	ns *nsState

	// paused is the manual-override latch: Sharded.SetProbes sets it, and
	// while set the controller observes but never adjusts.
	paused atomic.Bool
	// overrideMu makes a manual override (pause + pin, in SetProbes)
	// atomic with respect to a controller adjustment (pause check + budget
	// write, in adjustProbes), so an in-flight decision can never land
	// after — and silently undo — an operator's pin.
	overrideMu sync.Mutex
	// shadowing admits one in-flight shadow query at a time; samples that
	// arrive while one runs are dropped, bounding shadow cost to a single
	// slot regardless of query rate.
	shadowing atomic.Bool
	inflight  sync.WaitGroup
	queries   atomic.Uint64
	adds      atomic.Uint64
	checking  atomic.Bool
	shadows   atomic.Int64
	retrains  atomic.Int64

	mu     sync.Mutex
	window []float64
	// recallSum/recallN accumulate every recall sample ever observed —
	// shadow comparisons plus free exact-fallback samples — for the
	// ObservedRecall metrics export.
	recallSum float64
	recallN   int
	// lastBad is the highest probe count recently observed missing the
	// target — the shrink path never steps back onto it, which is the
	// hysteresis that stops grow/shrink oscillation. Reset when a retrain
	// changes the partition geometry.
	lastBad     int
	lastRetrain time.Time
}

// EnableAdaptive installs an adaptive serving controller on the store and
// returns it, replacing (and un-pausing) any previous one. With
// cfg.RecallTarget > 0 the effective probe budget becomes
// controller-owned: it starts at the currently configured budget (minimum
// 1) and is grown/shrunk within [1, shards] to hold the target;
// SetProbes remains available as the manual override (it pins the budget
// and pauses the controller). With cfg.RetrainSkew >= 1 the store
// additionally retrains its IVF quantizer automatically once shard skew
// or centroid drift crosses the threshold. See AutoConfig for the knobs
// and the package comment for the full adaptive contract.
func (s *Sharded) EnableAdaptive(cfg AutoConfig) (*Tuner, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tuner{s: s, cfg: cfg}
	if st := s.savedState.Swap(nil); st != nil {
		// A Load restored persisted serving state before any controller
		// existed: resume from the converged budget and clocks instead of
		// re-learning from cold.
		t.restore(*st)
	}
	if cfg.RecallTarget > 0 && s.Probes() == 0 {
		// Seed the controller at the cheapest budget; the SLO loop grows it
		// as shadow evidence arrives. Probe mode still engages only once an
		// IVF quantizer routes, so an untrained store keeps serving exact.
		s.probes.Store(1)
	}
	s.tuner.Store(t)
	// Every namespace gets its own controller over the same config: those
	// that already exist now, later ones as their state is created
	// (nsStateFor).
	s.adaptiveCfg.Store(&cfg)
	s.nss.Range(func(_, v any) bool {
		s.ensureNSTuner(v.(*nsState))
		return true
	})
	return t, nil
}

// restore rehydrates controller state from a persisted serving-state
// trailer (Sharded.Load): the hysteresis floor, the retrain clock, and
// the lifetime recall aggregate. The decision window restarts empty — the
// corpus may have changed shape while the store was down, so only
// long-lived state carries over.
func (t *Tuner) restore(st tunerState) {
	t.mu.Lock()
	t.lastBad = st.LastBad
	t.lastRetrain = st.LastRetrain
	t.recallSum, t.recallN = st.RecallSum, st.RecallN
	t.window = t.window[:0]
	t.mu.Unlock()
}

// DisableAdaptive removes the adaptive controller — the root one and
// every namespace's — freezing each probe budget at its current
// effective value. Call Tuner.Quiesce first if in-flight shadow work
// must complete.
func (s *Sharded) DisableAdaptive() {
	s.adaptiveCfg.Store(nil)
	s.tuner.Store(nil)
	s.nss.Range(func(_, v any) bool {
		v.(*nsState).tuner.Store(nil)
		return true
	})
}

// AdaptiveTuner returns the installed adaptive controller, or nil.
func (s *Sharded) AdaptiveTuner() *Tuner { return s.tuner.Load() }

// Quiesce blocks until every in-flight shadow query and retrain check —
// including a retrain it triggered — has completed: the barrier tests and
// benchmarks use to make controller state deterministic.
func (t *Tuner) Quiesce() { t.inflight.Wait() }

// Shadows returns how many shadow comparisons have completed.
func (t *Tuner) Shadows() int { return int(t.shadows.Load()) }

// Retrains returns how many automatic retrains the skew trigger has run.
func (t *Tuner) Retrains() int { return int(t.retrains.Load()) }

// Paused reports whether a manual SetProbes has overridden the
// controller.
func (t *Tuner) Paused() bool { return t.paused.Load() }

// ObservedRecall returns the mean recall@k across every sample the
// controller has observed — shadow comparisons plus the free recall=1
// samples exact-fallback queries feed — and the sample count. (0, 0)
// before any sample arrives. This is the shadow-recall figure a serving
// dashboard puts next to the probe budget.
func (t *Tuner) ObservedRecall() (mean float64, samples int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.recallN == 0 {
		return 0, 0
	}
	return t.recallSum / float64(t.recallN), t.recallN
}

// observeQuery is the per-query hook Search calls once per served query
// (never mid-rebalance) with that query's SERVED result, so the
// controller's observed recall measures exactly what was served, batched
// or not. probed reports whether the result came from probe-limited
// search; when it did not, the serving path was exact and recall is 1 by
// construction — a free sample that lets the controller shrink back down
// without any shadow cost. Probed samples launch an exact shadow search
// on its own goroutine (one slot from the shared parallel budget, at most
// one in flight) and feed observed recall@k into the controller window.
// The shadow keeps the served query's namespace scope, so a tenant's
// observed recall measures its own entries, never a co-tenant's.
func (t *Tuner) observeQuery(q Query, approx []Scored, probed bool) {
	if t.cfg.RecallTarget <= 0 || t.paused.Load() {
		return
	}
	every := uint64(math.Max(1, math.Round(1/t.cfg.ShadowRate)))
	if t.queries.Add(1)%every != 0 {
		return
	}
	if !probed {
		t.observe(1)
		return
	}
	if !t.shadowing.CompareAndSwap(false, true) {
		return
	}
	ids := make(map[string]bool, len(approx))
	for _, sc := range approx {
		ids[sc.Entry.ID] = true
	}
	// The caller owns the vector; copy it before the goroutine outlives
	// the call.
	q.Vector = append([]float64(nil), q.Vector...)
	t.inflight.Add(1)
	go func() {
		defer t.inflight.Done()
		defer t.shadowing.Store(false)
		granted := parallel.Reserve(1)
		defer parallel.Release(granted)
		res, err := t.s.search([]Query{q}, true)
		if err != nil || len(res[0]) == 0 {
			return
		}
		exact := res[0]
		// The store may have grown between the served query and this
		// shadow; entries the probe path could not have seen then count as
		// misses, biasing the controller conservative — acceptable, and it
		// vanishes as ingest quiesces.
		hit := 0
		for _, sc := range exact {
			if ids[sc.Entry.ID] {
				hit++
			}
		}
		t.shadows.Add(1)
		t.observe(float64(hit) / float64(len(exact)))
	}()
}

// observe feeds one recall sample into the controller window and, when
// the window fills, makes a grow/shrink decision: below target → grow one
// probe (and remember the failing budget); at or above the shrink margin
// → shrink one probe, but never back onto a budget recently seen failing.
// With the quantized two-stage scan on, a second knob backs the first:
// when the next grow would push the budget to the shard count — full
// fan-out, which serves exact and abandons probe-limited serving
// entirely — the controller widens the candidate pool instead
// (escalateOverfetch) and forgets probe budgets seen failing under the
// narrower pool; the remaining loss is quantization rank noise inside
// the probed shards, which more probes cannot fix but a wider re-rank
// pool can.
func (t *Tuner) observe(recall float64) {
	t.mu.Lock()
	t.recallSum += recall
	t.recallN++
	t.window = append(t.window, recall)
	if len(t.window) < t.cfg.Window {
		t.mu.Unlock()
		return
	}
	var sum float64
	for _, r := range t.window {
		sum += r
	}
	mean := sum / float64(len(t.window))
	t.window = t.window[:0]

	cur := t.effProbes()
	switch {
	case mean < t.cfg.RecallTarget:
		if cur > t.lastBad {
			t.lastBad = cur
		}
		t.mu.Unlock()
		grown := min(cur+1, t.s.NumShards())
		if grown == t.s.NumShards() && !t.paused.Load() && t.s.escalateOverfetchNS(t.ns) {
			// Growing to full fan-out abandons probe-limited serving (and
			// with it the quantized stage, whose shadow samples would read
			// a flat 1.0 and park the budget there): widen the candidate
			// pool instead, and forget probe budgets seen failing under
			// the narrower pool.
			t.mu.Lock()
			t.lastBad = 0
			t.mu.Unlock()
			return
		}
		t.adjustProbes(cur, grown)
	case mean >= t.shrinkAt() && cur > 1 && cur-1 > t.lastBad:
		t.mu.Unlock()
		t.adjustProbes(cur, cur-1)
	default:
		t.mu.Unlock()
	}
}

// shrinkAt is the hysteresis margin above the target below which the
// controller holds rather than shrinks — halfway between the target and
// perfect recall.
func (t *Tuner) shrinkAt() float64 {
	return t.cfg.RecallTarget + (1-t.cfg.RecallTarget)/2
}

// effProbes reads the probe budget this controller owns: the root
// store's for the default controller, the namespace's own otherwise.
func (t *Tuner) effProbes() int {
	if t.ns != nil {
		return int(t.ns.probes.Load())
	}
	return t.s.Probes()
}

// adjustProbes moves the effective budget from..to, clamped to [1, ∞).
// The pause check and the budget write happen under overrideMu — the
// same lock a manual SetProbes holds across its pause-and-pin — so an
// operator override is never clobbered by an in-flight decision; the
// compare-and-swap additionally drops a decision computed against a
// budget another adjustment already moved.
func (t *Tuner) adjustProbes(from, to int) {
	t.overrideMu.Lock()
	defer t.overrideMu.Unlock()
	if t.paused.Load() || to == from {
		return
	}
	if to < 1 {
		to = 1
	}
	if t.ns != nil {
		t.ns.probes.CompareAndSwap(int64(from), int64(to))
		return
	}
	t.s.probes.CompareAndSwap(int64(from), int64(to))
}

// pinProbes is SetProbes's half of the override handshake: pause the
// controller and pin the budget atomically with respect to adjustProbes.
func (t *Tuner) pinProbes(p int) {
	t.overrideMu.Lock()
	defer t.overrideMu.Unlock()
	t.paused.Store(true)
	if t.ns != nil {
		t.ns.probes.Store(int64(p))
		return
	}
	t.s.probes.Store(int64(p))
}

// noteAdd is the per-insert hook: every RetrainCheckEvery-th Add launches
// an asynchronous skew check (one at a time), so the insert hot path pays
// one atomic increment.
func (t *Tuner) noteAdd() {
	if t.cfg.RetrainSkew <= 0 {
		return
	}
	if t.adds.Add(1)%uint64(t.cfg.RetrainCheckEvery) != 0 {
		return
	}
	if !t.checking.CompareAndSwap(false, true) {
		return
	}
	t.inflight.Add(1)
	go func() {
		defer t.inflight.Done()
		defer t.checking.Store(false)
		t.checkRetrain()
	}()
}

// checkRetrain measures shard skew and centroid drift and kicks the
// online TrainIVF when either crosses the threshold, rate-limited by
// MinRetrainInterval. Runs off the insert path; TrainIVF itself is the
// incremental (non-stop-the-world) handoff.
func (t *Tuner) checkRetrain() {
	if t.s.Rebalancing() {
		return
	}
	now := t.cfg.Now()
	t.mu.Lock()
	if !t.lastRetrain.IsZero() && now.Sub(t.lastRetrain) < t.cfg.MinRetrainInterval {
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()

	if !t.skewed() && !t.drifted() {
		return
	}

	t.mu.Lock()
	t.lastRetrain = now
	// The partition geometry is about to change: forget which budgets were
	// failing under the old centroids.
	t.lastBad = 0
	t.mu.Unlock()
	if err := t.s.TrainIVF(0); err == nil {
		t.retrains.Add(1)
	}
}

// skewed reports whether per-shard load imbalance (max/mean of ShardLens)
// has reached the retrain threshold.
func (t *Tuner) skewed() bool {
	lens := t.s.ShardLens()
	if len(lens) < 2 {
		return false
	}
	total, maxLen := 0, 0
	for _, l := range lens {
		total += l
		if l > maxLen {
			maxLen = l
		}
	}
	if total == 0 {
		return false
	}
	mean := float64(total) / float64(len(lens))
	return float64(maxLen)/mean >= t.cfg.RetrainSkew
}

// drifted reports whether recent inserts sit far from their assigned
// centroids relative to the quantizer's training distortion — the signal
// that the corpus has moved and the trained geometry is stale. It samples
// each shard's newest rows (inserts append, so the tail is what arrived
// since training) and compares their mean centroid distance against the
// training baseline.
func (t *Tuner) drifted() bool {
	const tailPerShard = 8
	s := t.s
	s.mu.RLock()
	ivf, ok := s.gen.parts.(*IVF)
	shards := s.gen.shard
	s.mu.RUnlock()
	if !ok || ivf.distortion <= 0 {
		return false
	}
	var sum float64
	var n int
	for i, sh := range shards {
		sh.mu.RLock()
		for j := len(sh.entries) - 1; j >= 0 && j >= len(sh.entries)-tailPerShard; j-- {
			sum += Distance(sh.row(j), ivf.centroids[i])
			n++
		}
		sh.mu.RUnlock()
	}
	if n == 0 {
		return false
	}
	return (sum / float64(n) / ivf.distortion) >= t.cfg.RetrainSkew
}
