package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	rcacopilot "repro"
)

// Each workload runs a serial phase (one op in flight), which gives its
// latency, and a capacity phase (maxWindow ops in flight), which gives its
// throughput. Each phase sends a fixed number of ops per second of
// --seconds, sized so that the two phases together take about --seconds
// on 2 CPUs, where an incident takes about 3.7 ms alone and 3.4 ms at
// capacity, a retrieval 0.5 ms and 0.45 ms, and an incident with its
// verdict 5 ms and 4 ms. The retrieval phases together stay within
// the query pool's never-repeated texts.
const (
	serialIncidents    = 150
	capacityIncidents  = 150
	serialRetrievals   = 400
	capacityRetrievals = 800
	serialFeedback     = 100
	capacityFeedback   = 130
	hotTexts           = 64 // retrieval hot set; the daemon's embed cache holds 256
	// walCompactBytes is rcacopilotd's default -wal-compact-bytes. The
	// feedback-durable warm-up fills the log to half the serial phase's
	// growth short of it, so compaction lands mid-phase.
	walCompactBytes = 4 << 20
	host            = "rcacopilotd"
	maxWarm         = 3500 // capacity and warm-up submissions encoded ahead
)

// daemonFlags are the only flags the benchmark changes: the per-team
// token bucket is admission policy, not capacity, so it is raised out of
// the way. Every other flag keeps its default.
var daemonFlags = []string{"-rate", "1000000", "-burst", "1000000"}

// run is everything one benchmark run observed.
type run struct {
	cfg      config
	problems []string
	lines    []string
	phases   []phaseSummary

	setups                 []float64 // cold boots, seconds
	restarts               []float64 // kill -9 to ready, seconds
	primary                []float64 // serial latencies of the workload's primary ops, ms
	rates                  []float64 // capacity phases, primary ops answered per second, by tenths
	cpuMS                  float64
	opsDone                int
	rssMB                  float64 // the highest VmHWM of the daemons measured
	right                  int     // answers with the right category
	answered               int
	late                   []float64
	boundary               counts // summed over the measured phases
	walBPR                 float64
	verdictP99             float64 // ms, feedback-durable
	walSynced, walAppended int64   // records over the serial phase
	compacted              int
	walCopy                string // copy of the killed WAL directory (trace runs)

	// Inputs as sent, for the reference and traced replays.
	incs    []*rcacopilot.Incident
	labels  []string
	replay  []*submission // the first len(incs) timed submissions, in order
	pool    textPool
	queries []query
}

func (r *run) check(ok bool, format string, a ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	}
}

func (r *run) logf(format string, a ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

// boot starts a daemon and records its start-up time as a cold boot.
func (r *run) boot(name string, args []string) (*daemon, error) {
	d, ready, err := startDaemon(r.cfg.daemon, filepath.Join(r.cfg.runDir, name+".log"), args)
	if err != nil {
		return nil, err
	}
	r.logf("boot %s: ready in %.3f s", name, ready.Seconds())
	r.setups = append(r.setups, ready.Seconds())
	return d, nil
}

// restartAfterKill kill -9s d and boots the same flags again, recording
// restart_s.
func (r *run) restartAfterKill(d *daemon, args []string, cold bool) (*daemon, error) {
	t := time.Now()
	d.kill()
	killed := time.Since(t)
	d2, ready, err := startDaemon(r.cfg.daemon, filepath.Join(r.cfg.runDir, "restart.log"), args)
	if err != nil {
		return nil, err
	}
	r.restarts = append(r.restarts, (killed + ready).Seconds())
	r.logf("restart after kill -9: ready in %.3f s", (killed + ready).Seconds())
	if cold {
		// Without a WAL a restart is a cold boot, and every cold boot of
		// the run samples the restart time too.
		r.setups = append(r.setups, ready.Seconds())
		r.restarts = slices.Clone(r.setups)
	}
	return d2, nil
}

// measure runs the named phase, then settle if set, between two CPU
// readings, and counts the phase towards the run's metrics.
func (r *run) measure(d *daemon, e *engine, name string, window int, feed []*op, settle func() error) (s phaseSummary, err error) {
	err = r.timed(d, func() error {
		if s, err = r.phase(d, e, name, window, feed); err != nil || settle == nil {
			return err
		}
		return settle()
	})
	if err != nil {
		return s, err
	}
	r.phases[len(r.phases)-1].measured = true
	for _, k := range s.kinds {
		r.opsDone += k.succeeded
	}
	r.late = append(r.late, s.late...)
	return s, nil
}

// score counts the answered submissions whose prediction is the withheld
// label.
func (r *run) score(ops []*op) {
	for _, o := range ops {
		if o.status == http.StatusAccepted && o.resultErr == "" && o.results == 1 {
			r.answered++
			if o.predicted == r.labels[o.sub.base] {
				r.right++
			}
		}
	}
}

// timed scrapes the daemon's counters and CPU around fn.
func (r *run) timed(d *daemon, fn func() error) error {
	c0, err := d.scrape()
	if err != nil {
		return err
	}
	cpu0, err := d.cpuMillis()
	if err != nil {
		return err
	}
	if err := fn(); err != nil {
		return err
	}
	cpu1, err := d.cpuMillis()
	if err != nil {
		return err
	}
	c1, err := d.scrape()
	if err != nil {
		return err
	}
	r.cpuMS += cpu1 - cpu0
	r.boundary = addCounts(r.boundary, c1.minus(c0))
	r.boundary.entries, r.boundary.logBytes = c1.entries, c1.logBytes
	rss, err := d.peakRSSMB()
	r.rssMB = max(r.rssMB, rss)
	return err
}

func addCounts(a, b counts) counts {
	a.accepted += b.accepted
	a.rejectedRate += b.rejectedRate
	a.rejectedLoad += b.rejectedLoad
	a.submitted += b.submitted
	a.completed += b.completed
	a.failed += b.failed
	a.dropped += b.dropped
	a.appended += b.appended
	a.synced += b.synced
	return a
}

// phase feeds ops to e in a closed loop of window slots between two
// /metrics scrapes and reconciles the daemon's counters with the
// generator's tallies.
func (r *run) phase(d *daemon, e *engine, name string, window int, feed []*op) (phaseSummary, error) {
	before, err := d.scrape()
	if err != nil {
		return phaseSummary{}, err
	}
	if err := e.runPhase(feed, window); err != nil {
		return phaseSummary{}, fmt.Errorf("phase %s: %w", name, err)
	}
	after, err := d.scrape()
	if err != nil {
		return phaseSummary{}, err
	}
	delta := after.minus(before)
	ops := slices.Clone(feed)
	for _, o := range feed {
		if o.verdict != nil && !o.verdict.due.IsZero() {
			ops = append(ops, o.verdict)
		}
	}
	s := summarizePhase(name, window, ops, delta)
	r.phases = append(r.phases, s)
	r.lines = append(r.lines, s.lines()...)

	// Reconciliation: every 202 is one accepted incident, each of which
	// completed or failed with exactly one SSE result.
	sub := s.kinds[kSubmit]
	r.check(delta.accepted == uint64(sub.accepted), "%s: /metrics accepted %d, generator saw %d 202s", name, delta.accepted, sub.accepted)
	r.check(delta.submitted == uint64(sub.accepted), "%s: /metrics submitted %d, generator saw %d 202s", name, delta.submitted, sub.accepted)
	r.check(delta.completed+delta.failed == delta.accepted, "%s: completed %d + failed %d != accepted %d", name, delta.completed, delta.failed, delta.accepted)
	r.check(delta.rejectedLoad+delta.rejectedRate == uint64(sub.refused), "%s: /metrics rejections %d, generator saw %d refusals", name, delta.rejectedLoad+delta.rejectedRate, sub.refused)
	r.check(delta.dropped == 0, "%s: daemon dropped %d SSE events", name, delta.dropped)
	r.check(after.pending == 0, "%s: %d incidents still pending after the phase", name, after.pending)
	for _, o := range ops {
		if o.kind == kSubmit {
			accepted := o.status == http.StatusAccepted
			r.check(!accepted || o.results == 1, "%s: incident %s accepted but got %d SSE results", name, o.sub.id, o.results)
			r.check(accepted || o.results == 0, "%s: incident %s refused (%d) but got an SSE result", name, o.sub.id, o.status)
		}
	}
	r.check(e.unknown.Load() == 0, "%s: %d SSE events for unknown incidents", name, e.unknown.Load())
	r.check(e.dups.Load() == 0, "%s: %d duplicate SSE results", name, e.dups.Load())
	return s, nil
}

// incidentOps encodes the submissions of one phase (and their verdicts).
// Verdict ops are attached only when verdicts is set.
func incidentOps(cyc *cycler, incs []*rcacopilot.Incident, labels []string, n int, verdicts bool, byID map[string]*op) ([]*op, error) {
	ops := make([]*op, n)
	for i := range ops {
		base, id := cyc.next()
		sub, err := encodeSubmission(host, incs, labels, base, id)
		if err != nil {
			return nil, err
		}
		o := &op{kind: kSubmit, req: rawPost(host, "/api/incidents", sub.body), sub: sub}
		if verdicts {
			o.verdict = &op{kind: kVerdict, sub: sub}
		}
		ops[i] = o
		byID[id] = o
	}
	return ops, nil
}

// Each workload without a WAL splits its ops over rounds, one per daemon
// process: boot, then for each round a serial and a capacity phase, with
// a kill -9 and cold reboot between rounds. The samples of every metric so
// spread over the whole run rather than one stretch of it.
const (
	incidentRounds  = 4
	retrievalRounds = 2
)

func (r *run) incidentReplay() error {
	corpus, err := rcacopilot.GenerateCorpusSpec(corpusSpec())
	if err != nil {
		return err
	}
	r.incs, r.labels = heldOut(corpus)
	cyc := newCycler(rand.New(rand.NewSource(r.cfg.seed)), len(r.incs), r.cfg.seed)
	byID := make(map[string]*op)
	serial, err := incidentOps(cyc, r.incs, r.labels, r.count(serialIncidents), false, byID)
	if err != nil {
		return err
	}
	capOps, err := incidentOps(cyc, r.incs, r.labels, r.count(capacityIncidents), false, byID)
	if err != nil {
		return err
	}
	all := append(slices.Clone(serial), capOps...)
	r.setReplay(all)

	args := daemonFlags
	d, err := r.boot("daemon", args)
	if err != nil {
		return err
	}
	defer func() { d.kill() }()
	for round := range incidentRounds {
		if round > 0 {
			// Without a WAL the reboot is a cold boot.
			if d, err = r.restartAfterKill(d, args, true); err != nil {
				return err
			}
			c, err := d.scrape()
			if err != nil {
				return err
			}
			r.check(c.entries == defaultHistory, "rebooted daemon holds %d entries, want %d", c.entries, defaultHistory)
		}
		e, err := newEngine(d.addr, byID, r.labels, 2*len(byID)+16)
		if err != nil {
			return err
		}
		serialS, err := r.measure(d, e, "serial", 1, part(serial, round, incidentRounds), nil)
		if err != nil {
			e.close()
			return err
		}
		capS, err := r.measure(d, e, "capacity", maxWindow, part(capOps, round, incidentRounds), nil)
		e.close()
		if err != nil {
			return err
		}
		r.primary = append(r.primary, serialS.kinds[kSubmit].latency...)
		r.rates = append(r.rates, capS.rates(kSubmit)...)
	}
	r.score(all)
	return r.checkPredictions(all)
}

// part is the i-th of n nearly equal consecutive parts of ops.
func part(ops []*op, i, n int) []*op { return ops[i*len(ops)/n : (i+1)*len(ops)/n] }

// count is the number of ops a phase sends: perSecond for each second of
// --seconds.
func (r *run) count(perSecond int) int { return int(float64(perSecond) * r.cfg.seconds) }

func (r *run) retrievalMix() error {
	corpus, err := rcacopilot.GenerateCorpusSpec(corpusSpec())
	if err != nil {
		return err
	}
	r.pool = buildTextPool(corpus)
	mix := newQueryMix(rand.New(rand.NewSource(r.cfg.seed)), r.pool, hotTexts)
	nSerial := r.count(serialRetrievals)
	r.queries = mix.draw(nSerial + r.count(capacityRetrievals))
	r.logf("query pool: %d texts; %d queries, %d of them hot", len(r.pool.texts), len(r.queries), countHot(r.queries))
	all := make([]*op, len(r.queries))
	for i, q := range r.queries {
		all[i] = &op{kind: kRetrieve, q: q, req: retrieveReq(host, r.pool.texts[q.text], q.diverse)}
	}
	serial, capOps := all[:nSerial], all[nSerial:]

	args := append(slices.Clone(daemonFlags), "-history", strconv.Itoa(fullHistory))
	d, err := r.boot("daemon", args)
	if err != nil {
		return err
	}
	defer func() { d.kill() }()
	for round := range retrievalRounds {
		if round > 0 {
			if d, err = r.restartAfterKill(d, args, true); err != nil {
				return err
			}
		}
		e, err := newEngine(d.addr, nil, nil, len(all)+16)
		if err != nil {
			return err
		}
		serialS, err := r.measure(d, e, "serial", 1, part(serial, round, retrievalRounds), nil)
		if err != nil {
			e.close()
			return err
		}
		capS, err := r.measure(d, e, "capacity", maxWindow, part(capOps, round, retrievalRounds), nil)
		e.close()
		if err != nil {
			return err
		}
		r.primary = append(r.primary, serialS.kinds[kRetrieve].latency...)
		r.rates = append(r.rates, capS.rates(kRetrieve)...)
		r.check(r.boundary.entries == fullHistory, "daemon holds %d entries, want %d", r.boundary.entries, fullHistory)
	}
	// Retrieval quality counts each distinct text once (the hot set would
	// otherwise weigh 64 texts as much as the rest of the run): right when
	// one of its neighbours shares the source incident's category.
	right := make(map[int]bool)
	for _, o := range all {
		if o.status == http.StatusOK && o.respErr == "" {
			right[o.q.text] = slices.ContainsFunc(o.hits, func(h hit) bool { return h.Category == r.pool.labels[o.q.text] })
		}
	}
	for _, ok := range right {
		r.answered++
		if ok {
			r.right++
		}
	}
	return r.checkRetrievals(all)
}

func (r *run) feedbackDurable() error {
	corpus, err := rcacopilot.GenerateCorpusSpec(corpusSpec())
	if err != nil {
		return err
	}
	r.incs, r.labels = heldOut(corpus)
	cyc := newCycler(rand.New(rand.NewSource(r.cfg.seed)), len(r.incs), r.cfg.seed)

	// A second cold boot on its own fresh directory, for the set-up median.
	spare, err := r.boot("spare", append(slices.Clone(daemonFlags), "-wal-dir", filepath.Join(r.cfg.runDir, "wal-spare")))
	if err != nil {
		return err
	}
	spare.kill()

	walDir := filepath.Join(r.cfg.runDir, "wal")
	args := append(slices.Clone(daemonFlags), "-wal-dir", walDir)
	d, err := r.boot("daemon", args)
	if err != nil {
		return err
	}
	defer func() { d.kill() }()
	c, err := waitSynced(d)
	if err != nil {
		return err
	}
	if c.appended != defaultHistory || c.logBytes <= 0 {
		return fmt.Errorf("fresh WAL after boot: %d records, %d bytes", c.appended, c.logBytes)
	}
	r.walBPR = float64(c.logBytes) / float64(c.appended)

	byID := make(map[string]*op)
	warm, err := incidentOps(cyc, r.incs, r.labels, maxWarm, true, byID)
	if err != nil {
		return err
	}
	cyc.count = 0
	cyc.seed = -r.cfg.seed // distinct IDs for the serial phase
	serial, err := incidentOps(cyc, r.incs, r.labels, r.count(serialFeedback), true, byID)
	if err != nil {
		return err
	}
	r.setReplay(serial)
	e, err := newEngine(d.addr, byID, r.labels, 3*len(byID)+16)
	if err != nil {
		return err
	}
	defer func() { e.close() }()

	// Two rounds, with a kill -9 and reboot between them, so that every
	// metric samples two stretches of the run: round 1 is a capacity and a
	// serial phase; round 2 a capacity phase, closed-loop warm-up steps and
	// the last serial phase. The warm-up brings the log to half that
	// phase's growth short of the compaction threshold, at the log bytes
	// per learned verdict measured so far, so compaction lands in its
	// middle; the capacity phases are capped so that they never take the
	// log past that point at the boot's bytes per entry.
	learned := defaultHistory
	settle := func(ops []*op) func() error {
		return func() error {
			learned += countVerdicts(ops)
			_, err := waitLearned(d, learned)
			return err
		}
	}
	var verdictLat []float64
	measure := func(name string, window int, ops []*op, settle func() error) (phaseSummary, error) {
		s, err := r.measure(d, e, name, window, ops, settle)
		if err != nil {
			return s, err
		}
		if window == 1 {
			r.primary = append(r.primary, s.kinds[kSubmit].latency...)
		} else {
			r.rates = append(r.rates, s.rates(kSubmit)...)
		}
		verdictLat = append(verdictLat, s.kinds[kVerdict].latency...)
		r.check(s.kinds[kVerdict].failed == 0, "%s: %d verdicts failed", name, s.kinds[kVerdict].failed)
		return s, nil
	}
	serialA, serialB := part(serial, 0, 2), part(serial, 1, 2)
	room := int((walCompactBytes-float64(len(serialB))*r.walBPR/2-float64(c.logBytes))/r.walBPR) - len(serialA)
	capOps := warm[:max(0, min(r.count(capacityFeedback), room))]
	capA, capB := part(capOps, 0, 2), part(capOps, 1, 2)
	if _, err := measure("capacity", maxWindow, capA, settle(capA)); err != nil {
		return err
	}
	if _, err := measure("serial", 1, serialA, settle(serialA)); err != nil {
		return err
	}
	// Every learned verdict is synced before the kill, so the store must
	// come back whole.
	if _, err := waitSynced(d); err != nil {
		return err
	}
	e.close()
	if d, err = r.restartAfterKill(d, args, false); err != nil {
		return err
	}
	pre, err := waitSynced(d)
	if err != nil {
		return err
	}
	r.check(pre.entries == learned, "reboot between the rounds holds %d entries; %d were learned and synced", pre.entries, learned)
	if e, err = newEngine(d.addr, byID, r.labels, 3*len(byID)+16); err != nil {
		return err
	}
	if _, err := measure("capacity", maxWindow, capB, settle(capB)); err != nil {
		return err
	}
	if pre, err = waitSynced(d); err != nil {
		return err
	}
	sent := len(capOps)
	for range 2 {
		perVerdict := float64(pre.logBytes-c.logBytes) / float64(learned-defaultHistory)
		n := int(math.Ceil((walCompactBytes - float64(len(serialB))*perVerdict/2 - float64(pre.logBytes)) / perVerdict))
		if n <= 0 {
			break
		}
		if sent+n > len(warm) {
			return fmt.Errorf("warm-up needs %d more verdicts; have %d", n, len(warm)-sent)
		}
		batch := warm[sent : sent+n]
		if _, err := r.phase(d, e, "warm-up", maxWindow, batch); err != nil {
			return err
		}
		if err := settle(batch)(); err != nil {
			return err
		}
		sent += n
		if pre, err = waitSynced(d); err != nil {
			return err
		}
	}
	r.logf("before the last serial phase: %d incidents with verdicts learned, %d of them in the warm-up; WAL %d bytes (%.0f per ingested incident)",
		learned-defaultHistory, sent-len(capOps), pre.logBytes, r.walBPR)
	r.score(capOps)
	r.score(serial)

	// Every verdict is in the store before the kill, so the crash check
	// below has a fixed target.
	var post counts
	if _, err := measure("serial", 1, serialB, func() (err error) {
		learned += countVerdicts(serialB)
		post, err = waitLearned(d, learned)
		return err
	}); err != nil {
		return err
	}
	e.close()
	r.verdictP99 = quantile(verdictLat, 0.99)
	r.check(len(r.rates) > 0, "capacity phases too short: %d incidents", len(capOps))
	if post.lastCompaction != "" && post.lastCompaction != pre.lastCompaction {
		r.compacted = 1
	}
	r.check(r.compacted == 1, "no WAL compaction during the last serial phase (log %d bytes at start, %d at end)", pre.logBytes, post.logBytes)

	if r.cfg.trace {
		// Keep the killed directory for the in-process replay timing.
		d.kill()
		r.walCopy = filepath.Join(r.cfg.runDir, "wal-killed")
		if err := copyDir(walDir, r.walCopy); err != nil {
			return err
		}
	}
	d, err = r.restartAfterKill(d, args, false)
	if err != nil {
		return err
	}
	c, err = d.scrape()
	if err != nil {
		return err
	}
	// The durability counters restart at each log rotation; the entries
	// the store held beyond the new log's records are in the snapshot.
	walTotals := func(c counts) (synced, appended int64) {
		snap := int64(c.entries) - c.appended
		return snap + c.synced, snap + c.appended
	}
	synced, appended := walTotals(post)
	preSynced, preAppended := walTotals(pre)
	r.walSynced, r.walAppended = synced-preSynced, appended-preAppended
	r.logf("after kill -9: rebooted store holds %d entries (before the kill: %d synced, %d appended)", c.entries, synced, appended)
	r.check(int64(c.entries) >= synced && int64(c.entries) <= appended,
		"rebooted store holds %d entries; before the kill %d were synced and %d appended", c.entries, synced, appended)

	// One more kill -9 and reboot of the idle daemon: restart_s is the
	// median of the run's three, and the reboot must recover the same store.
	if d, err = r.restartAfterKill(d, args, false); err != nil {
		return err
	}
	again, err := d.scrape()
	if err != nil {
		return err
	}
	r.check(again.entries == c.entries, "reboot of the rebooted daemon holds %d entries, the first reboot %d", again.entries, c.entries)
	return nil
}

// setReplay keeps the first len(incs) measured submissions for the traced
// in-process replay.
func (r *run) setReplay(ops []*op) {
	for _, o := range ops[:min(len(ops), len(r.incs))] {
		r.replay = append(r.replay, o.sub)
	}
}

func countHot(qs []query) int {
	n := 0
	for _, q := range qs {
		if q.hot {
			n++
		}
	}
	return n
}

func countVerdicts(ops []*op) int {
	n := 0
	for _, o := range ops {
		if v := o.verdict; v != nil && v.status == http.StatusOK {
			n++
		}
	}
	return n
}

// waitLearned polls /metrics until the store holds want entries.
func waitLearned(d *daemon, want int) (counts, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		c, err := d.scrape()
		if err != nil {
			return c, err
		}
		if c.entries >= want {
			if c.entries > want {
				return c, fmt.Errorf("store holds %d entries, only %d were learned", c.entries, want)
			}
			return c, nil
		}
		if time.Now().After(deadline) {
			return c, fmt.Errorf("store holds %d of %d learned entries after 60s", c.entries, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitSynced polls /metrics until every appended WAL record is synced, so
// the log's durable size counts all of them.
func waitSynced(d *daemon) (counts, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := d.scrape()
		if err != nil || c.synced == c.appended {
			return c, err
		}
		if time.Now().After(deadline) {
			return c, fmt.Errorf("WAL synced %d of %d appended records after 10s", c.synced, c.appended)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(from, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// decodeSubmitted returns held-out incident base as the daemon decodes it
// from the submitted JSON.
func decodeSubmitted(incs []*rcacopilot.Incident, base int, id string) (*rcacopilot.Incident, error) {
	c := incs[base].Clone()
	c.ID = id
	body, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	var in rcacopilot.Incident
	if err := json.Unmarshal(body, &in); err != nil {
		return nil, err
	}
	return &in, nil
}
