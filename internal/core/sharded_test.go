package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/incident"
	"repro/internal/vectordb"
)

// TestShardedCopilotMatchesFlat wires multi-shard indexes through the full
// Learn/Predict path and requires predictions identical to a single-shard
// (flat) copilot over the same history — the core-level slice of the
// shard-count equivalence contract.
func TestShardedCopilotMatchesFlat(t *testing.T) {
	e := getEnv(t)
	flat := newCopilot(t, Config{Shards: 1})
	sharded := newCopilot(t, Config{Shards: 7})
	ivf := newCopilot(t, Config{Shards: 5, Partitioner: PartitionIVF})

	if s, ok := flat.Index().(*vectordb.Sharded); !ok || s.NumShards() != 1 {
		t.Fatalf("Shards=1 index is %T, want one shard", flat.Index())
	}
	if s, ok := sharded.Index().(*vectordb.Sharded); !ok || s.NumShards() != 7 {
		t.Fatalf("Shards=7 index is %T, want seven shards", sharded.Index())
	}

	const history = 120
	for i := 0; i < history; i++ {
		inc := e.corpus.Incidents[i]
		for _, c := range []*Copilot{flat, sharded, ivf} {
			if err := c.Learn(inc.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The IVF copilot trains its quantizer from the stored vectors (Learn
	// alone never retrains; batch ingest does it automatically).
	if s, ok := ivf.Index().(*vectordb.Sharded); !ok {
		t.Fatalf("ivf index is %T", ivf.Index())
	} else if err := s.TrainIVF(0); err != nil {
		t.Fatal(err)
	}

	for probe := history; probe < history+5; probe++ {
		want := e.corpus.Incidents[probe].Clone()
		want.Summary, want.Predicted = "", ""
		res, err := flat.Predict(want)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*Copilot{"sharded": sharded, "ivf": ivf} {
			got := e.corpus.Incidents[probe].Clone()
			got.Summary, got.Predicted = "", ""
			gres, err := c.Predict(got)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if gres.Category != res.Category || gres.Explanation != res.Explanation || gres.Unseen != res.Unseen {
				t.Fatalf("%s probe %d diverged: %+v vs flat %+v", name, probe, gres, res)
			}
		}
	}
}

// TestLearnBatchTrainsIVFPartitioner pins the auto-training hook: after a
// batch ingest under PartitionIVF the index runs on a trained quantizer.
func TestLearnBatchTrainsIVFPartitioner(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{Shards: 4, Partitioner: PartitionIVF})
	incs := e.corpus.Incidents[:40]
	clones := make([]*incident.Incident, len(incs))
	for i, in := range incs {
		clones[i] = in.Clone()
	}
	if err := c.LearnBatch(clones, 2); err != nil {
		t.Fatal(err)
	}
	s, ok := c.Index().(*vectordb.Sharded)
	if !ok {
		t.Fatalf("index is %T", c.Index())
	}
	if _, ok := s.Partitioner().(*vectordb.IVF); !ok {
		t.Fatalf("partitioner is %T after LearnBatch, want *vectordb.IVF", s.Partitioner())
	}
	if s.Len() != len(incs) {
		t.Fatalf("len = %d, want %d", s.Len(), len(incs))
	}
}

// TestNewRejectsUnknownPartitioner covers config validation.
func TestNewRejectsUnknownPartitioner(t *testing.T) {
	e := getEnv(t)
	chat := newCopilot(t, Config{}).Chat()
	if _, err := New(e.corpus.Fleet, chat, Config{Shards: 4, Partitioner: "lsh"}); err == nil {
		t.Fatal("unknown partitioner must fail")
	}
	if _, err := New(e.corpus.Fleet, chat, Config{Shards: 4, Partitioner: PartitionIVF}); err != nil {
		t.Fatal(err)
	}
}

// TestProbeConfigValidation covers the probe knob's config surface:
// negative budgets and probes without a sharded store are rejected; a
// valid probe config reaches the index.
func TestProbeConfigValidation(t *testing.T) {
	e := getEnv(t)
	chat := newCopilot(t, Config{}).Chat()
	if _, err := New(e.corpus.Fleet, chat, Config{Shards: 4, Probes: -1}); err == nil {
		t.Fatal("negative probes must fail")
	}
	if _, err := New(e.corpus.Fleet, chat, Config{Shards: 1, Probes: 2}); err == nil {
		t.Fatal("probes without shards must fail")
	}
	if _, err := New(e.corpus.Fleet, chat, Config{Shards: 4, Probes: 2}); err == nil {
		t.Fatal("probes under category routing must fail (would silently never engage)")
	}
	c := newCopilot(t, Config{Shards: 4, Partitioner: PartitionIVF, Probes: 2})
	s, ok := c.Index().(*vectordb.Sharded)
	if !ok {
		t.Fatalf("index is %T", c.Index())
	}
	if s.Probes() != 2 {
		t.Fatalf("Probes = %d on the index, want 2", s.Probes())
	}
}

// TestAdaptiveConfigValidation covers the adaptive serving knobs' config
// surface: out-of-range targets/rates/skews, adaptive without the IVF
// sharded store, shadow rate without a target, and the Probes/RecallTarget
// exclusivity are all rejected; a valid adaptive config reaches the index
// as an installed controller.
func TestAdaptiveConfigValidation(t *testing.T) {
	e := getEnv(t)
	chat := newCopilot(t, Config{}).Chat()
	bad := []Config{
		{Shards: 4, Partitioner: PartitionIVF, RecallTarget: 1.5},
		{Shards: 4, Partitioner: PartitionIVF, RecallTarget: -0.5},
		{Shards: 4, Partitioner: PartitionIVF, RecallTarget: 0.9, ShadowRate: 2},
		{Shards: 4, Partitioner: PartitionIVF, ShadowRate: 0.5},
		{Shards: 4, Partitioner: PartitionIVF, RetrainSkew: 0.5},
		{Shards: 4, Partitioner: PartitionIVF, RecallTarget: 0.9, Probes: 2},
		{Shards: 1, RecallTarget: 0.9},
		{Shards: 4, RecallTarget: 0.9},
		{Shards: 4, RetrainSkew: 1.5},
	}
	for i, cfg := range bad {
		if _, err := New(e.corpus.Fleet, chat, cfg); err == nil {
			t.Fatalf("case %d: config %+v must be rejected", i, cfg)
		}
	}
	c := newCopilot(t, Config{Shards: 4, Partitioner: PartitionIVF, RecallTarget: 0.95, ShadowRate: 0.5, RetrainSkew: 2})
	s, ok := c.Index().(*vectordb.Sharded)
	if !ok {
		t.Fatalf("index is %T", c.Index())
	}
	if s.AdaptiveTuner() == nil {
		t.Fatal("adaptive config must install a controller on the index")
	}
	if s.Probes() != 1 {
		t.Fatalf("controller-seeded probe budget = %d, want 1", s.Probes())
	}
}

// TestAdaptiveCopilotPredicts runs the full Learn/Predict path with the
// auto-tuner live: the pipeline must work end to end while shadow
// sampling and skew checks run behind retrieval.
func TestAdaptiveCopilotPredicts(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{Shards: 4, Partitioner: PartitionIVF, RecallTarget: 0.9, ShadowRate: 1, RetrainSkew: 3})
	incs := e.corpus.Incidents[:40]
	clones := make([]*incident.Incident, len(incs))
	for i, in := range incs {
		clones[i] = in.Clone()
	}
	if err := c.LearnBatch(clones, 2); err != nil {
		t.Fatal(err)
	}
	s := c.Index().(*vectordb.Sharded)
	if _, ok := s.Partitioner().(*vectordb.IVF); !ok {
		t.Fatalf("partitioner is %T, want trained IVF", s.Partitioner())
	}
	probe := e.corpus.Incidents[41].Clone()
	probe.Summary, probe.Predicted = "", ""
	res, err := c.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Category == "" {
		t.Fatal("adaptive Predict returned no category")
	}
	tn := s.AdaptiveTuner()
	tn.Quiesce()
	if p := s.Probes(); p < 1 || p > 4 {
		t.Fatalf("effective probe budget %d outside [1, 4]", p)
	}
}

// TestProbeCopilotPredicts runs the full Learn/Predict path under
// probe-limited serving: the prediction pipeline must work end to end on
// the approximate index (no golden equality — probe mode is approximate
// by contract once the quantizer trains).
func TestProbeCopilotPredicts(t *testing.T) {
	e := getEnv(t)
	c := newCopilot(t, Config{Shards: 4, Partitioner: PartitionIVF, Probes: 1})
	incs := e.corpus.Incidents[:40]
	clones := make([]*incident.Incident, len(incs))
	for i, in := range incs {
		clones[i] = in.Clone()
	}
	if err := c.LearnBatch(clones, 2); err != nil {
		t.Fatal(err)
	}
	s := c.Index().(*vectordb.Sharded)
	if _, ok := s.Partitioner().(*vectordb.IVF); !ok {
		t.Fatalf("partitioner is %T, want trained IVF", s.Partitioner())
	}
	probe := e.corpus.Incidents[41].Clone()
	probe.Summary, probe.Predicted = "", ""
	res, err := c.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if res.Category == "" {
		t.Fatal("probe-limited Predict returned no category")
	}
}

// TestShardsDefaultToNumCPU pins the Shards default: an unset Shards scales
// the store to the machine (runtime.NumCPU()), while an explicit Shards: 1
// builds a single shard serving results identical to the sharded
// configurations — the opt-out is one knob, not a magic zero.
func TestShardsDefaultToNumCPU(t *testing.T) {
	def := newCopilot(t, Config{})
	if got, want := def.Config().Shards, runtime.NumCPU(); got != want {
		t.Fatalf("default Shards = %d, want runtime.NumCPU() = %d", got, want)
	}
	if runtime.NumCPU() > 1 {
		if _, ok := def.Index().(*vectordb.Sharded); !ok {
			t.Fatalf("default index on a %d-CPU machine is %T, want sharded", runtime.NumCPU(), def.Index())
		}
	}
	flat := newCopilot(t, Config{Shards: 1})
	s, ok := flat.Index().(*vectordb.Sharded)
	if !ok || s.NumShards() != 1 {
		t.Fatalf("Shards=1 index is %T, want a single shard", flat.Index())
	}
	e := getEnv(t)
	sharded := newCopilot(t, Config{Shards: 4})
	for _, c := range []*Copilot{flat, sharded} {
		for _, inc := range e.corpus.Incidents[:60] {
			if err := c.Learn(inc.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	query := e.corpus.Incidents[60].DiagnosticText()
	at := e.corpus.Incidents[60].CreatedAt
	for _, diverse := range []bool{false, true} {
		want, err := sharded.Retrieve(query, at, 5, diverse)
		if err != nil {
			t.Fatal(err)
		}
		got, err := flat.Retrieve(query, at, 5, diverse)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("diverse=%v: Shards=1 retrieval %v differs from Shards=4 %v", diverse, got, want)
		}
	}
}

// TestQuantizedConfigValidation covers the two-stage quantization knobs'
// config surface: quantization without probe-limited serving (or without
// the IVF sharded store), negative overfetch, and overfetch without
// quantization are rejected; a valid config reaches the index with the
// sidecar enabled and the overfetch factor applied.
func TestQuantizedConfigValidation(t *testing.T) {
	e := getEnv(t)
	chat := newCopilot(t, Config{}).Chat()
	bad := []Config{
		{Shards: 4, Partitioner: PartitionIVF, Quantized: true},
		{Shards: 1, Probes: 0, Quantized: true},
		{Shards: 4, Partitioner: PartitionIVF, Probes: 2, Overfetch: -1},
		{Shards: 4, Partitioner: PartitionIVF, Probes: 2, Overfetch: 8},
		{Shards: 4, Probes: 2, Quantized: true},
	}
	for i, cfg := range bad {
		if _, err := New(e.corpus.Fleet, chat, cfg); err == nil {
			t.Fatalf("case %d: config %+v must be rejected", i, cfg)
		}
	}
	c := newCopilot(t, Config{Shards: 4, Partitioner: PartitionIVF, Probes: 2, Quantized: true, Overfetch: 6})
	s, ok := c.Index().(*vectordb.Sharded)
	if !ok {
		t.Fatalf("index is %T", c.Index())
	}
	if !s.QuantizedEnabled() {
		t.Fatal("quantized config must enable the sidecar on the index")
	}
	if s.Overfetch() != 6 {
		t.Fatalf("Overfetch = %d on the index, want 6", s.Overfetch())
	}
	// SLO-owned probe budget also counts as probe-limited serving.
	if _, err := New(e.corpus.Fleet, chat, Config{Shards: 4, Partitioner: PartitionIVF, RecallTarget: 0.9, Quantized: true}); err != nil {
		t.Fatal(err)
	}
}
