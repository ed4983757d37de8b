package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	rcacopilot "repro"
)

// The daemon's corpus: cmd/rcacopilotd generates it from its own -seed
// flag (default 1), which the benchmark leaves at its default. The
// workload seed only draws arrivals, orders and query mixes from it.
const (
	corpusSeed     = 1
	defaultHistory = 300 // rcacopilotd -history default
	fullHistory    = 653 // the whole synthetic year
)

func corpusSpec() rcacopilot.CorpusSpec {
	return rcacopilot.CorpusSpec{
		Seed: corpusSeed, Start: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
		Days: 365, RecurrenceWithin20: 0.938, Team: "Transport",
	}
}

// heldOut returns the incidents after the first defaultHistory ones — the
// ones a default daemon has not ingested — as the JSON bodies the
// benchmark submits (label, summary and prediction withheld) and their
// withheld labels. IDs are assigned per submission.
func heldOut(corpus *rcacopilot.Corpus) (incs []*rcacopilot.Incident, labels []string) {
	for _, in := range corpus.Incidents[defaultHistory:] {
		c := in.Clone()
		labels = append(labels, string(c.Category))
		c.Category, c.Summary, c.Predicted, c.Explanation = "", "", "", ""
		incs = append(incs, c)
	}
	return incs, labels
}

// textPool is the retrieval-mix query pool: incident titles, evidence
// lines and pairs of consecutive evidence lines of the full year that occur
// in exactly one incident, so each text has one source label. The year
// has under 4,000 such single lines, too few for the never-repeated half
// of a 15-second run; the pairs, as an OCE pasting two log lines would
// ask, bring it to about 7,700. The pool depends only on the corpus, never
// on the workload seed, so one in-process reference covers every seed.
type textPool struct {
	texts  []string
	labels []string
}

func buildTextPool(corpus *rcacopilot.Corpus) textPool {
	owner := make(map[string]int)
	add := func(i int, t string) {
		if prev, ok := owner[t]; ok && prev != i {
			owner[t] = -1
		} else if !ok {
			owner[t] = i
		}
	}
	usable := func(l string) bool { return len(l) >= 24 && len(l) <= 160 }
	for i, in := range corpus.Incidents {
		if t := strings.TrimSpace(in.Title); usable(t) {
			add(i, t)
		}
		for _, ev := range in.Evidence {
			prev := ""
			for _, l := range strings.Split(ev.Body, "\n") {
				if l = strings.TrimSpace(l); !usable(l) {
					prev = ""
					continue
				}
				add(i, l)
				if prev != "" {
					add(i, prev+" "+l)
				}
				prev = l
			}
		}
	}
	var p textPool
	for t, i := range owner {
		if i >= 0 {
			p.texts = append(p.texts, t)
		}
	}
	sort.Strings(p.texts)
	for _, t := range p.texts {
		p.labels = append(p.labels, string(corpus.Incidents[owner[t]].Category))
	}
	return p
}

func rawPost(host, path string, body []byte) []byte {
	return append([]byte(fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, host, len(body))), body...)
}

func rawGet(host, pathQuery string) []byte {
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", pathQuery, host))
}

// submission is one incident submission, with its verdict bodies encoded
// ahead of time (confirm if the prediction turns out right, correct to the
// withheld label otherwise).
type submission struct {
	base    int // index into heldOut
	id      string
	body    []byte // the JSON the daemon receives
	confirm []byte // raw verdict requests
	correct []byte
}

// cycler hands out held-out incidents in seed-shuffled cycles, each under
// a fresh ID; one cycler carries the position and ID counter across phases.
type cycler struct {
	rng   *rand.Rand
	perm  []int
	pos   int
	count int
	seed  int64
}

func newCycler(rng *rand.Rand, n int, seed int64) *cycler {
	return &cycler{rng: rng, perm: rng.Perm(n), seed: seed}
}

func (c *cycler) next() (base int, id string) {
	if c.pos == len(c.perm) {
		c.perm, c.pos = c.rng.Perm(len(c.perm)), 0
	}
	base = c.perm[c.pos]
	c.pos++
	c.count++
	return base, fmt.Sprintf("BENCH-%d-%06d", c.seed, c.count)
}

func encodeSubmission(host string, incs []*rcacopilot.Incident, labels []string, base int, id string) (*submission, error) {
	in := incs[base].Clone()
	in.ID = id
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	conf, err := json.Marshal(map[string]string{"incidentId": id, "verdict": "confirm", "reviewer": "perfbench"})
	if err != nil {
		return nil, err
	}
	corr, err := json.Marshal(map[string]string{"incidentId": id, "verdict": "correct", "corrected": labels[base], "reviewer": "perfbench"})
	if err != nil {
		return nil, err
	}
	return &submission{
		base: base, id: id, body: body,
		confirm: rawPost(host, "/api/feedback", conf),
		correct: rawPost(host, "/api/feedback", corr),
	}, nil
}

// query is one retrieval-mix request.
type query struct {
	text    int // index into the pool
	diverse bool
	hot     bool
}

// queryMix draws retrieval-mix queries: half come from a seed-chosen hot
// set of hotSize texts (it fits the daemon's 256-entry query-embedding
// cache), half are never repeated in the run; half set diverse=1.
type queryMix struct {
	rng       *rand.Rand
	hot, cold []int
	next      int
}

func newQueryMix(rng *rand.Rand, pool textPool, hotSize int) *queryMix {
	perm := rng.Perm(len(pool.texts))
	return &queryMix{rng: rng, hot: perm[:hotSize], cold: perm[hotSize:]}
}

func (m *queryMix) draw(n int) []query {
	qs := make([]query, n)
	for i := range qs {
		q := query{diverse: m.rng.Intn(2) == 0}
		if m.rng.Intn(2) == 0 {
			q.text, q.hot = m.hot[m.rng.Intn(len(m.hot))], true
		} else {
			// A run longer than the pool allows wraps around; 20 seconds
			// still stay inside it.
			q.text = m.cold[m.next%len(m.cold)]
			m.next++
		}
		qs[i] = q
	}
	return qs
}

func retrieveReq(host string, text string, diverse bool) []byte {
	pq := "/api/retrieve?q=" + url.QueryEscape(text)
	if diverse {
		pq += "&diverse=1"
	}
	return rawGet(host, pq)
}
