package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"

	rcacopilot "repro"
)

// reference is what an in-process System built like the daemon answers for
// every input a workload can send, whatever its seed: the prediction for
// each held-out incident, and the hits for each pool text with and without
// diverse. It depends only on the code, so it is computed once per build
// (keyed by the daemon's and this benchmark's binaries) and reused.
type reference struct {
	Predicted []string   `json:"predicted,omitempty"`
	Hits      [][2][]hit `json:"hits,omitempty"`
}

func fileHash(h io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(h, f)
	return err
}

func (r *run) loadReference() (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	for _, p := range []string{r.cfg.daemon, self} {
		if err := fileHash(h, p); err != nil {
			return nil, err
		}
	}
	path := filepath.Join(r.cfg.workDir, "ref", r.cfg.workload+"-"+hex.EncodeToString(h.Sum(nil))[:24]+".json")
	if b, err := os.ReadFile(path); err == nil {
		var ref reference
		if err := json.Unmarshal(b, &ref); err == nil {
			return &ref, nil
		}
	}
	ref, err := r.buildReference()
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	b, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	tmp := fmt.Sprintf("%s.%d", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return ref, os.Rename(tmp, path)
}

func (r *run) buildReference() (*reference, error) {
	ref := &reference{}
	switch r.cfg.workload {
	case "incident-replay":
		p, err := newInproc(inprocOptions{history: defaultHistory})
		if err != nil {
			return nil, err
		}
		defer p.close()
		for base := range r.incs {
			in, err := decodeSubmitted(r.incs, base, fmt.Sprintf("REF-%06d", base))
			if err != nil {
				return nil, err
			}
			if _, err := p.sys.HandleIncident(in); err != nil {
				return nil, err
			}
			ref.Predicted = append(ref.Predicted, string(in.Predicted))
		}
	case "retrieval-mix":
		p, err := newInproc(inprocOptions{history: fullHistory})
		if err != nil {
			return nil, err
		}
		defer p.close()
		for _, text := range r.pool.texts {
			var pair [2][]hit
			for i, diverse := range []bool{false, true} {
				res, err := p.sys.Retrieve(text, 0, diverse)
				if err != nil {
					return nil, err
				}
				pair[i] = toHits(res)
			}
			ref.Hits = append(ref.Hits, pair)
		}
	}
	return ref, nil
}

func toHits(res []rcacopilot.Retrieved) []hit {
	out := make([]hit, len(res))
	for i, s := range res {
		out[i] = hit{ID: s.Entry.ID, Category: string(s.Entry.Category), Distance: s.Distance, Similarity: s.Similarity}
	}
	return out
}

// checkPredictions compares every completed incident's SSE prediction with
// the in-process replay of the same input.
func (r *run) checkPredictions(ops []*op) error {
	ref, err := r.loadReference()
	if err != nil {
		return err
	}
	same, diff := 0, 0
	for _, o := range ops {
		if o.status != http.StatusAccepted || o.results != 1 || o.resultErr != "" {
			continue
		}
		if o.predicted == ref.Predicted[o.sub.base] {
			same++
			continue
		}
		if diff++; diff <= 5 {
			r.check(false, "incident %s (held-out #%d): daemon predicted %q, in-process %q", o.sub.id, o.sub.base, o.predicted, ref.Predicted[o.sub.base])
		}
	}
	r.logf("predictions equal to the in-process replay: %d of %d", same, same+diff)
	r.check(diff == 0, "%d predictions differ from the in-process replay", diff)
	return nil
}

// checkRetrievals compares every answered retrieval with in-process
// System.Retrieve on the same text.
func (r *run) checkRetrievals(ops []*op) error {
	ref, err := r.loadReference()
	if err != nil {
		return err
	}
	same, diff := 0, 0
	for _, o := range ops {
		if o.status != http.StatusOK || o.respErr != "" {
			continue
		}
		want := ref.Hits[o.q.text][0]
		if o.q.diverse {
			want = ref.Hits[o.q.text][1]
		}
		if slices.Equal(o.hits, want) {
			same++
			continue
		}
		if diff++; diff <= 5 {
			r.check(false, "retrieval %q (diverse=%v): daemon %v, in-process %v", r.pool.texts[o.q.text], o.q.diverse, o.hits, want)
		}
	}
	r.logf("retrievals equal to in-process System.Retrieve: %d of %d", same, same+diff)
	r.check(diff == 0, "%d retrievals differ from in-process System.Retrieve", diff)
	return nil
}
