package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type opKind byte

const (
	kSubmit opKind = iota
	kVerdict
	kRetrieve
)

// hit is one /api/retrieve result as compared against the reference.
type hit struct {
	ID         string  `json:"id"`
	Category   string  `json:"category"`
	Distance   float64 `json:"distance"`
	Similarity float64 `json:"similarity"`
}

// op is one request the generator sends, with everything observed about
// it. Fields are written by one goroutine each (feeder or SSE reader: due;
// writer: sent; response reader: resp/status/hits; SSE reader: result
// fields) and read by the controller only after the phase has ended.
type op struct {
	kind opKind
	req  []byte

	sub     *submission // kSubmit, kVerdict
	q       query       // kRetrieve
	verdict *op         // kSubmit with verdicts: the verdict to send on its result

	due, sent, resp time.Time
	status          int
	respErr         string
	hits            []hit

	result    time.Time // kSubmit: SSE result arrival
	predicted string
	resultErr string
	results   int // SSE results seen for this submission
}

// engine drives one daemon over exactly two connections: a pipelined
// HTTP/1.1 connection carrying every submission, verdict and retrieval in
// the order they become due, and one SSE stream. A phase feeds its ops in
// a closed loop: an op becomes due as soon as it holds one of the phase's
// window slots, and gives the slot back when it is answered (a submission
// by its SSE result or a refusal, a retrieval by its response). A verdict
// becomes due when its incident's result arrives and holds no slot. The
// window never exceeds maxWindow submissions in flight, below the
// daemon's in-flight bound, so no submission is refused. Latency runs
// from the due time.
type engine struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	pending chan *op // written requests, in order, awaiting responses
	due     chan *op // ops to write, in the order they became due
	slots   chan struct{}

	byID   map[string]*op // every submission of the session, read-only once started
	labels []string       // withheld labels, by held-out index

	sse     io.ReadCloser
	sseDone chan struct{} // closed when the SSE reader has stopped
	wg      sync.WaitGroup
	errMu   sync.Mutex
	errs    []string
	unknown atomic.Int64 // SSE events for IDs never submitted
	dups    atomic.Int64 // second SSE result for one submission

	pushed, sent, responded, accepted, results atomic.Int64
}

// maxWindow is the most submissions in flight at once: below the daemon's
// smallest in-flight bound (2×(workers+1) = 4 with one worker), so no
// submission is ever refused.
const maxWindow = 3

func (e *engine) fail(format string, a ...any) {
	e.errMu.Lock()
	if len(e.errs) < 20 {
		e.errs = append(e.errs, fmt.Sprintf(format, a...))
	}
	e.errMu.Unlock()
}

func (e *engine) failures() []string {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return append([]string(nil), e.errs...)
}

// newEngine connects to the daemon at addr. byID holds every submission
// the session will send (nil for retrieval-only sessions); capacity bounds
// the ops of the whole session.
func newEngine(addr string, byID map[string]*op, labels []string, capacity int) (*engine, error) {
	e := &engine{
		pending: make(chan *op, capacity), // never blocks the writer
		due:     make(chan *op, capacity), // never blocks the SSE reader
		slots:   make(chan struct{}, maxWindow),
		byID:    byID, labels: labels,
	}
	for range maxWindow {
		e.slots <- struct{}{}
	}
	if byID != nil {
		resp, err := sseClient.Get("http://" + addr + "/api/incidents/stream")
		if err != nil {
			return nil, fmt.Errorf("open SSE stream: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("open SSE stream: status %d", resp.StatusCode)
		}
		e.sse, e.sseDone = resp.Body, make(chan struct{})
		go e.readSSE(resp.Body)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		e.close()
		return nil, err
	}
	e.conn, e.br, e.bw = conn, bufio.NewReaderSize(conn, 64<<10), bufio.NewWriterSize(conn, 64<<10)
	e.wg.Add(2)
	go e.readResponses()
	go e.write()
	return e, nil
}

// sseClient holds the stream open for the whole session.
var sseClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}

func (e *engine) close() {
	if e.sse != nil {
		e.sse.Close()
		<-e.sseDone // no verdict becomes due any more
		e.sse = nil
	}
	if e.conn != nil {
		e.conn.Close()
	}
	if e.due != nil {
		close(e.due) // the writer closes pending once it has drained due
		e.due = nil
	}
	e.wg.Wait()
	sseClient.CloseIdleConnections()
}

// write sends every op as it becomes due.
func (e *engine) write() {
	defer e.wg.Done()
	defer close(e.pending)
	for o := range e.due {
		o.sent = time.Now()
		e.sent.Add(1)
		e.pending <- o
		if _, err := e.bw.Write(o.req); err != nil {
			e.fail("write request: %v", err)
			continue
		}
		if len(e.due) == 0 {
			if err := e.bw.Flush(); err != nil {
				e.fail("write request: %v", err)
			}
		}
	}
}

func (e *engine) push(o *op) {
	o.due = time.Now()
	e.pushed.Add(1)
	e.due <- o
}

func (e *engine) readResponses() {
	defer e.wg.Done()
	broken := false
	for o := range e.pending {
		if broken {
			o.respErr = "connection broken"
			e.responded.Add(1)
			continue
		}
		resp, err := http.ReadResponse(e.br, nil)
		if err != nil {
			broken = true
			o.respErr = err.Error()
			e.responded.Add(1)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		o.resp, o.status = time.Now(), resp.StatusCode
		if err != nil {
			o.respErr = err.Error()
		}
		if o.kind == kRetrieve && o.status == http.StatusOK {
			var r struct {
				Results []hit `json:"results"`
			}
			if err := json.Unmarshal(body, &r); err != nil {
				o.respErr = "decode retrieval: " + err.Error()
			}
			o.hits = r.Results
		}
		switch {
		case o.kind == kSubmit && o.status == http.StatusAccepted:
			e.accepted.Add(1)
		case o.kind == kSubmit, o.kind == kRetrieve:
			e.slots <- struct{}{} // a refused submission gets no SSE result
		}
		e.responded.Add(1)
	}
}

func (e *engine) readSSE(body io.Reader) {
	defer close(e.sseDone)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		now := time.Now()
		var ev struct {
			ID        string `json:"incidentId"`
			Predicted string `json:"predicted"`
			Error     string `json:"error"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			e.fail("undecodable SSE event %q: %v", data, err)
			continue
		}
		o := e.byID[ev.ID]
		if o == nil {
			e.unknown.Add(1)
			continue
		}
		o.results++
		if o.results > 1 {
			e.dups.Add(1)
			continue
		}
		o.result, o.predicted, o.resultErr = now, ev.Predicted, ev.Error
		if v := o.verdict; v != nil && ev.Error == "" {
			v.req = v.sub.correct
			if ev.Predicted == e.labels[v.sub.base] {
				v.req = v.sub.confirm
			}
			e.push(v)
		}
		e.slots <- struct{}{}
		e.results.Add(1)
	}
}

// runPhase feeds ops in a closed loop with window slots (at most
// maxWindow) and waits until every request has its response, every
// accepted submission its SSE result and every verdict its response.
func (e *engine) runPhase(feed []*op, window int) error {
	// Hold back the slots the phase does not use.
	for range maxWindow - window {
		<-e.slots
	}
	defer func() {
		for range maxWindow - window {
			e.slots <- struct{}{}
		}
	}()
	stop := make(chan struct{})
	feedDone := make(chan struct{})
	var fed atomic.Bool
	go func() {
		defer close(feedDone)
		for _, o := range feed {
			select {
			case <-e.slots:
			case <-stop:
				return
			}
			e.push(o)
		}
		fed.Store(true)
	}()
	defer func() {
		close(stop)
		<-feedDone
	}()

	deadline := time.Now().Add(120 * time.Second)
	for {
		time.Sleep(2 * time.Millisecond)
		results := e.results.Load()
		pushed := e.pushed.Load()
		sent := e.sent.Load()
		responded := e.responded.Load()
		accepted := e.accepted.Load()
		if fed.Load() && results == accepted && pushed == sent && sent == responded {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("phase did not complete: pushed %d sent %d responded %d accepted %d results %d",
				pushed, sent, responded, accepted, results)
		}
		if errs := e.failures(); len(errs) > 0 {
			return errors.New(strings.Join(errs, "; "))
		}
	}
}
