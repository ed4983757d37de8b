package main

import (
	"fmt"
	"net/http"
	"slices"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// kindStats tallies one kind of op within a phase.
type kindStats struct {
	sent, succeeded, failed, refused, accepted int
	latency                                    []float64   // ms from due time, succeeded ops
	answered                                   []time.Time // succeeded ops
}

type phaseSummary struct {
	name     string
	window   int
	elapsed  time.Duration // first due time to last answer
	kinds    [3]kindStats
	late     []float64 // ms from due time to write
	boundary counts
	measured bool // counts towards the run's metrics
}

func (p phaseSummary) succeeded() int {
	n := 0
	for _, k := range p.kinds {
		n += k.succeeded
	}
	return n
}

func summarizePhase(name string, window int, ops []*op, delta counts) phaseSummary {
	p := phaseSummary{name: name, window: window, boundary: delta}
	var first, last time.Time
	for _, o := range ops {
		if o.sent.IsZero() {
			continue
		}
		k := &p.kinds[o.kind]
		k.sent++
		p.late = append(p.late, ms(o.sent.Sub(o.due)))
		var ok bool
		var done time.Time
		switch o.kind {
		case kSubmit:
			if o.status == http.StatusAccepted {
				k.accepted++
			}
			ok, done = o.status == http.StatusAccepted && o.results == 1 && o.resultErr == "", o.result
		case kVerdict:
			ok, done = o.status == http.StatusOK && o.respErr == "", o.resp
		case kRetrieve:
			ok, done = o.status == http.StatusOK && o.respErr == "", o.resp
		}
		if o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable {
			k.refused++
		}
		if !ok {
			k.failed++
			continue
		}
		k.succeeded++
		k.latency = append(k.latency, ms(done.Sub(o.due)))
		k.answered = append(k.answered, done)
		if first.IsZero() || o.due.Before(first) {
			first = o.due
		}
		if done.After(last) {
			last = done
		}
	}
	p.elapsed = last.Sub(first)
	return p
}

var kindNames = [3]string{"incidents", "verdicts", "retrievals"}

func (p phaseSummary) lines() []string {
	out := []string{fmt.Sprintf("phase %s (closed loop, window %d)", p.name, p.window)}
	for i, k := range p.kinds {
		if k.sent == 0 {
			continue
		}
		out = append(out, fmt.Sprintf("  %s: sent %d succeeded %d failed %d (refused 429/503: %d) latency p50 %.3f p90 %.3f p99 %.3f ms over %d",
			kindNames[i], k.sent, k.succeeded, k.failed, k.refused,
			quantile(k.latency, 0.5), quantile(k.latency, 0.9), quantile(k.latency, 0.99), len(k.latency)))
	}
	out = append(out, fmt.Sprintf("  first due to last answer %.3f s; generator late p99 %.3f ms",
		p.elapsed.Seconds(), quantile(p.late, 0.99)))
	out = append(out, "  /metrics delta: "+p.boundary.String())
	return out
}

// rates are the phase's rates of answers of one kind: each tenth of its
// answers, in order, counted over its own span. Their median moves little
// when the host stalls in a few of them.
func (p phaseSummary) rates(kind opKind) []float64 {
	t := slices.Clone(p.kinds[kind].answered)
	slices.SortFunc(t, time.Time.Compare)
	const parts = 10
	if len(t) < 2*parts {
		return nil
	}
	rates := make([]float64, parts)
	for i := range rates {
		a, b := i*(len(t)-1)/parts, (i+1)*(len(t)-1)/parts
		rates[i] = float64(b-a) / t[b].Sub(t[a]).Seconds()
	}
	return rates
}
