package vectordb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/incident"
	"repro/internal/wal"
)

// durTestOpts keeps every durable test on the same deterministic footing:
// each append fsyncs (every frame is a crash boundary) and automatic
// compaction is off so the log alone carries the history.
func durTestOpts() DurableOptions {
	return DurableOptions{SyncEvery: 1, SyncInterval: time.Hour, CompactBytes: -1}
}

func durEntry(i int, ns string) Entry {
	rng := rand.New(rand.NewSource(int64(i) + 7919))
	v := make([]float64, 8)
	for j := range v {
		v[j] = rng.NormFloat64()
	}
	return Entry{
		ID:        fmt.Sprintf("inc-%03d", i),
		Vector:    v,
		Category:  incident.Category(fmt.Sprintf("cat-%d", i%7)),
		Time:      time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Hour),
		Namespace: ns,
		Summary:   fmt.Sprintf("incident %d", i),
	}
}

func durQueries() [][]float64 {
	qs := make([][]float64, 3)
	for qi := range qs {
		rng := rand.New(rand.NewSource(int64(qi) + 104729))
		q := make([]float64, 8)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		qs[qi] = q
	}
	return qs
}

// requireMatchesOracle checks the recovered store against the reference
// store on every observable the crash matrix names: Len, the exact ID
// set, per-namespace counts, and bit-identical retrieval, unscoped and
// scoped to each namespace.
func requireMatchesOracle(t *testing.T, got Index, oracle *refStore, ids []string, nsCounts map[string]int) {
	t.Helper()
	if got.Len() != oracle.Len() {
		t.Fatalf("Len = %d, oracle has %d", got.Len(), oracle.Len())
	}
	for _, id := range ids {
		ge, gok := got.Get(id)
		oe, ook := oracle.Get(id)
		if gok != ook {
			t.Fatalf("Get(%s) = %v, oracle %v", id, gok, ook)
		}
		if !gok {
			continue
		}
		if ge.Namespace != oe.Namespace || ge.Category != oe.Category || !ge.Time.Equal(oe.Time) {
			t.Fatalf("entry %s differs from oracle: %+v vs %+v", id, ge, oe)
		}
	}
	for ns := range nsCounts {
		if g, o := nsLen(got, ns), oracle.nsLen(ns); g != o {
			t.Fatalf("namespace %q Len = %d, oracle %d", ns, g, o)
		}
	}
	qt := time.Date(2024, 4, 1, 0, 0, 0, 0, time.UTC)
	for qi, q := range durQueries() {
		batch := []Query{{Vector: q, Time: qt, K: 5, Alpha: 0.1}}
		for ns := range nsCounts {
			batch = append(batch, Query{Vector: q, Time: qt, K: 5, Alpha: 0.1, Namespace: ns, Scoped: true})
		}
		for _, bq := range batch {
			gr, gerr := search1(got, bq)
			or, oerr := search1(oracle, bq)
			if (gerr == nil) != (oerr == nil) {
				t.Fatalf("query %d: err %v vs oracle %v", qi, gerr, oerr)
			}
			if !reflect.DeepEqual(gr, or) {
				t.Fatalf("query %d (scope %q): retrieval diverges from oracle:\n got %v\nwant %v", qi, bq.Namespace, gr, or)
			}
		}
	}
}

// TestDurableCrashMatrix is the issue's crash-injection matrix: a scripted
// 200-op sequence is journaled with per-record fsync, then for every frame
// boundary in the resulting log (and a torn-tail variant of each) a fresh
// store is opened from that prefix and must equal the reference store holding
// exactly the entries whose records the prefix contains — Len, ID set,
// per-namespace counts, bit-identical TopK. No crash point may lose a
// committed record or resurrect an uncommitted one.
func TestDurableCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	factory := func() Index { return NewIndex(8, Options{Shards: 4}) }
	d, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}

	// 200 scripted ops: adds across three namespaces, one IVF retrain in
	// the middle so a walRecRetrain frame sits inside the matrix. Exact
	// serving throughout, so placement never affects results.
	namespaces := []string{"", "payments", "storage"}
	var seq []Entry
	for i := 0; i < 200; i++ {
		e := durEntry(i, namespaces[i%len(namespaces)])
		if err := d.Add(e); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		seq = append(seq, e)
		if i == 100 {
			s, ok := AsSharded(d)
			if !ok {
				t.Fatal("durable store did not unwrap to Sharded")
			}
			if err := s.TrainIVF(0); err != nil {
				t.Fatalf("op %d retrain: %v", i, err)
			}
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	logBytes, err := os.ReadFile(filepath.Join(dir, walLogName))
	if err != nil {
		t.Fatal(err)
	}
	ends := wal.FrameEnds(logBytes)
	if len(ends) < 201 { // 200 entries + at least the retrain record
		t.Fatalf("log has %d frames, want at least 201", len(ends))
	}

	allIDs := make([]string, len(seq))
	for i, e := range seq {
		allIDs[i] = e.ID
	}

	checkPrefix := func(t *testing.T, prefix []byte) {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, walLogName), prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		// The oracle is a reference store fed the entry records the prefix
		// actually commits, in log order.
		oracle := newRef(8)
		nsCounts := map[string]int{"": 0, "payments": 0, "storage": 0}
		_, _, rerr := wal.Replay(prefix, func(r wal.Record) error {
			if r.Type != walRecEntry {
				return nil
			}
			var e Entry
			if err := gobDecode(r.Payload, &e); err != nil {
				return err
			}
			nsCounts[e.Namespace]++
			return oracle.Add(e)
		})
		if rerr != nil && !errors.Is(rerr, wal.ErrTorn) {
			t.Fatalf("oracle replay: %v", rerr)
		}
		rec, err := OpenDurable(cdir, factory, durTestOpts())
		if err != nil {
			t.Fatalf("reopen after crash: %v", err)
		}
		defer rec.Close()
		requireMatchesOracle(t, rec, oracle, allIDs, nsCounts)
	}

	for i, end := range ends {
		prefix := logBytes[:end]
		t.Run(fmt.Sprintf("frame-%03d", i), func(t *testing.T) { checkPrefix(t, prefix) })
		// Torn variant: a few bytes of the next frame made it to disk.
		// Recovery must truncate back to this boundary.
		if int(end)+3 <= len(logBytes) {
			t.Run(fmt.Sprintf("frame-%03d-torn", i), func(t *testing.T) {
				checkPrefix(t, logBytes[:end+3])
			})
		}
	}
	// The boundary before any frame: header only.
	t.Run("header-only", func(t *testing.T) { checkPrefix(t, logBytes[:wal.HeaderLen]) })
}

func gobDecode(p []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(p)).Decode(v)
}

// TestDurableReopenFullState is the end-to-end recovery check: entries,
// a trained quantizer, and a moved probe budget all survive Close+reopen
// through the log alone (no compaction).
func TestDurableReopenFullState(t *testing.T) {
	dir := t.TempDir()
	factory := func() Index { return NewIndex(8, Options{Shards: 4}) }
	d, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := d.Add(durEntry(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := AsSharded(d)
	if err := s.TrainIVF(0); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProbes(2); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // journals the final serving state
		t.Fatal(err)
	}

	rec, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 60 {
		t.Fatalf("Len after reopen = %d, want 60", rec.Len())
	}
	rs, ok := AsSharded(rec)
	if !ok {
		t.Fatal("reopened store did not unwrap to Sharded")
	}
	if _, ok := rs.Partitioner().(*IVF); !ok {
		t.Fatalf("reopened partitioner is %T, want *IVF (retrain record not replayed)", rs.Partitioner())
	}
	if rs.Probes() != 2 {
		t.Fatalf("reopened probe budget = %d, want 2 (tuner-state record not replayed)", rs.Probes())
	}
	if got := rec.Stats().ReplayedRecords; got < 62 {
		t.Fatalf("ReplayedRecords = %d, want at least 62 (60 entries + retrain + tuner state)", got)
	}
}

// TestDurableCompactionRotates checks the checkpoint path: Compact writes
// the snapshot, rotates to a near-empty log, and a reopen restores the
// full contents from snapshot + fresh suffix without replaying the old
// history. The record counters count since open across the rotation.
func TestDurableCompactionRotates(t *testing.T) {
	dir := t.TempDir()
	factory := func() Index { return NewIndex(8, Options{Shards: 4}) }
	d, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := d.Add(durEntry(i, "payments")); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Stats().LogBytes
	requireCounts := func(when string, want int64) {
		t.Helper()
		st := d.Stats()
		if st.AppendedRecords != want || st.SyncedRecords != want {
			t.Fatalf("%s: appended %d, synced %d records, want %d each (one per add)",
				when, st.AppendedRecords, st.SyncedRecords, want)
		}
	}
	requireCounts("before compaction", 50)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	requireCounts("after compaction", 50)
	st := d.Stats()
	if st.LastCompaction.IsZero() {
		t.Fatal("LastCompaction still zero after Compact")
	}
	if st.LogBytes >= before {
		t.Fatalf("log not rotated: %d bytes before, %d after", before, st.LogBytes)
	}
	if _, err := os.Stat(filepath.Join(dir, walSnapName)); err != nil {
		t.Fatalf("snapshot missing after Compact: %v", err)
	}
	// Post-compaction adds land in the fresh log.
	for i := 50; i < 60; i++ {
		if err := d.Add(durEntry(i, "payments")); err != nil {
			t.Fatal(err)
		}
	}
	requireCounts("after post-compaction adds", 60)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 60 {
		t.Fatalf("Len after compacted reopen = %d, want 60", rec.Len())
	}
	if got := nsLen(rec, "payments"); got != 60 {
		t.Fatalf("namespace count after compacted reopen = %d, want 60", got)
	}
	if got := rec.Stats().ReplayedRecords; got < 10 || got >= 50 {
		t.Fatalf("ReplayedRecords = %d, want the post-compaction suffix only (10..49)", got)
	}
}

// TestDurableCrashBetweenSnapshotAndRotation covers the compaction crash
// window the design leans on idempotent replay for: the new snapshot is
// in place but the old log was never rotated, so every entry record in
// the log re-describes checkpointed state. Replay must skip them as
// duplicates, not double-add or fail.
func TestDurableCrashBetweenSnapshotAndRotation(t *testing.T) {
	dir := t.TempDir()
	factory := func() Index { return NewIndex(8, Options{Shards: 4}) }
	d, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := d.Add(durEntry(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the window by writing the snapshot by hand while leaving
	// the log untouched — exactly the on-disk state if the process died
	// after the rename and before wal.Create.
	var snap bytes.Buffer
	if err := d.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walSnapName), snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatalf("reopen across the snapshot/rotation window: %v", err)
	}
	defer rec.Close()
	if rec.Len() != 30 {
		t.Fatalf("Len = %d, want 30 (duplicate replay must be skipped)", rec.Len())
	}
}

// TestDurableLoadNeverClobbers pins the staging-swap contract on the
// durable layer itself: a Load that fails validation leaves the serving
// store untouched and still durable, mirroring decodeSnapshot's
// never-clobber guarantee one layer up.
func TestDurableLoadNeverClobbers(t *testing.T) {
	dir := t.TempDir()
	factory := func() Index { return NewIndex(8, Options{Shards: 4}) }
	d, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 20; i++ {
		if err := d.Add(durEntry(i, "storage")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Load(bytes.NewReader([]byte("definitely not a snapshot"))); err == nil {
		t.Fatal("Load of garbage succeeded")
	}
	if d.Len() != 20 {
		t.Fatalf("Len after failed Load = %d, want 20 (store clobbered)", d.Len())
	}
	if _, ok := d.Get("inc-007"); !ok {
		t.Fatal("entry lost after failed Load")
	}

	// A good Load replaces the contents and immediately re-checkpoints,
	// so a reopen serves the loaded corpus, not the pre-Load history.
	other := NewIndex(8, Options{Shards: 4})
	for i := 100; i < 110; i++ {
		if err := other.Add(durEntry(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := other.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := d.Load(&snap); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 10 {
		t.Fatalf("Len after Load = %d, want 10", d.Len())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != 10 {
		t.Fatalf("Len after reopen = %d, want 10 (Load not checkpointed)", rec.Len())
	}
	if _, ok := rec.Get("inc-100"); !ok {
		t.Fatal("loaded entry missing after reopen")
	}
	if _, ok := rec.Get("inc-007"); ok {
		t.Fatal("pre-Load entry resurrected after reopen")
	}
}

// TestDurableRetrySidecar checks the opaque sidecar records the feedback
// loop rides on: appended payloads come back in order after a reopen, and
// compaction re-journals the installed snapshot into the rotated log.
func TestDurableRetrySidecar(t *testing.T) {
	dir := t.TempDir()
	factory := func() Index { return NewIndex(8, Options{Shards: 2}) }
	d, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("t1"), []byte("t2"), []byte("t3")}
	for _, p := range payloads {
		if err := d.AppendRetry(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	got := rec.RetryRecords()
	if len(got) != 3 {
		t.Fatalf("replayed %d retry records, want 3", len(got))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("retry record %d = %q, want %q", i, got[i], payloads[i])
		}
	}
	// Compaction rotates the log; only the snapshotter's view survives.
	rec.SetRetrySnapshot(func() [][]byte { return [][]byte{[]byte("live-schedule")} })
	if err := rec.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	got = again.RetryRecords()
	if len(got) != 1 || !bytes.Equal(got[0], []byte("live-schedule")) {
		t.Fatalf("retry records after compaction = %q, want the re-journaled schedule", got)
	}
}

// TestDurableFailsOpenOnForeignLog distinguishes crash damage (recovered
// from, by truncation) from a wrong or foreign log (refused): a record
// with an unknown type must fail the open, not be skipped.
func TestDurableFailsOpenOnForeignLog(t *testing.T) {
	dir := t.TempDir()
	factory := func() Index { return NewIndex(8, Options{Shards: 2}) }
	d, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add(durEntry(0, "")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Append an intact, checksummed frame of an unknown record type.
	f, err := os.OpenFile(filepath.Join(dir, walLogName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w := wal.NewWriter(nopSync{f}, 0, wal.Options{SyncEvery: 1, SyncInterval: time.Hour})
	if err := w.Append(wal.Record{Type: 0xEE, Payload: []byte("mystery")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir, factory, durTestOpts()); err == nil {
		t.Fatal("open succeeded over a log with an unknown record type")
	}
}

// nopSync adapts an *os.File whose offset bookkeeping the test manages
// itself into a wal.File (Sync is still real).
type nopSync struct{ f *os.File }

func (n nopSync) Write(p []byte) (int, error) { return n.f.Write(p) }
func (n nopSync) Sync() error                 { return n.f.Sync() }
func (n nopSync) Close() error                { return n.f.Close() }

// TestWALConcurrentAppendHammer races concurrent adds (default and
// tagged namespaces), lock-free queries, explicit compactions, and the
// group-commit goroutine against each other, then reopens once and
// checks nothing committed was lost. Runs under -race in CI's fast-fail
// list.
func TestWALConcurrentAppendHammer(t *testing.T) {
	dir := t.TempDir()
	factory := func() Index { return NewIndex(8, Options{Shards: 4}) }
	d, err := OpenDurable(dir, factory, DurableOptions{
		SyncEvery:    8,
		SyncInterval: time.Millisecond,
		CompactBytes: -1, // compaction is driven explicitly below
	})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 50
	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := durEntry(wtr*perWriter+i, "")
				if wtr%2 == 0 {
					e.Namespace = "hammer"
				}
				if err := d.Add(e); err != nil {
					t.Errorf("writer %d add %d: %v", wtr, i, err)
					return
				}
			}
		}(wtr)
	}
	wg.Add(1)
	go func() { // queries race the adds and compactions, lock-free
		defer wg.Done()
		q := durQueries()[0]
		qt := time.Date(2024, 4, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 200; i++ {
			if _, err := topK(d, q, qt, 3, 0.1); err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // compactions race the appends
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := d.Compact(); err != nil {
				t.Errorf("compact %d: %v", i, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := OpenDurable(dir, factory, durTestOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rec.Len() != writers*perWriter {
		t.Fatalf("Len after hammer reopen = %d, want %d", rec.Len(), writers*perWriter)
	}
	if got := nsLen(rec, "hammer"); got != 2*perWriter {
		t.Fatalf("hammer namespace Len = %d, want %d", got, 2*perWriter)
	}
}
