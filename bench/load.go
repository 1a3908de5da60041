package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"enmc/internal/server"
	"enmc/internal/tenant"
	"enmc/internal/xrand"
)

// topK is what every classify request asks for: the quality metrics
// are judged on the served top-5.
const topK = 5

// inputs are a run's seeded inputs: the request vectors and their
// pre-encoded bodies, so client-side encoding is not timed and the
// same seed sends the same bytes. The open loop's arrival schedule
// comes from the same seed (poissonSchedule).
type inputs struct {
	seed    uint64
	vectors [][]float32
	bodies  [][]byte // one per request slot; a batch body carries batchItems vectors
}

func vectorJSON(dst []byte, h []float32) []byte {
	dst = append(dst, '[')
	for i, v := range h {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, float64(v), 'g', -1, 32)
	}
	return append(dst, ']')
}

// makeInputs derives everything a run sends from the seed alone.
func makeInputs(sp spec, m *model, seed uint64) *inputs {
	rng := xrand.New(seed)
	in := &inputs{seed: seed}
	switch sp.kind {
	case closedSingle, openSingle:
		in.vectors = m.requestVectors(rng, 512)
		for _, h := range in.vectors {
			b := append([]byte(`{"top_k":`+strconv.Itoa(topK)+`,"h":`), vectorJSON(nil, h)...)
			in.bodies = append(in.bodies, append(b, '}'))
		}
	case closedBatch:
		in.vectors = m.requestVectors(rng, 16*batchItems)
		for i := 0; i < len(in.vectors); i += batchItems {
			b := []byte(`{"top_k":` + strconv.Itoa(topK) + `,"batch":[`)
			for j, h := range in.vectors[i : i+batchItems] {
				if j > 0 {
					b = append(b, ',')
				}
				b = vectorJSON(b, h)
			}
			in.bodies = append(in.bodies, append(b, "]}"...))
		}
	case closedDecode:
		in.vectors = m.requestVectors(rng, 256)
		for _, h := range in.vectors {
			b := append([]byte(`{"mode":"greedy","stream":"ndjson","max_tokens":`+strconv.Itoa(decodeTokens)+`,"h0":`), vectorJSON(nil, h)...)
			in.bodies = append(in.bodies, append(b, '}'))
		}
	}
	return in
}

// poissonSchedule draws exponential gaps from the seed and scales
// them to fill the window exactly, so every seed offers the same
// number of requests and cls_per_s equals the offered rate unless the
// system falls behind.
func poissonSchedule(seed uint64, rate, seconds float64) []time.Duration {
	rng := xrand.New(seed ^ 0xa771a1) // apart from the request vectors' stream
	n := int(math.Round(rate * seconds))
	at := make([]float64, n)
	var sum float64
	for i := range at {
		sum += -math.Log(1 - rng.Float64())
		at[i] = sum
	}
	sum += -math.Log(1 - rng.Float64()) // the gap after the last arrival
	due := make([]time.Duration, n)
	for i, t := range at {
		due[i] = time.Duration(t / sum * seconds * float64(time.Second))
	}
	return due
}

// frame is one streamed decode token as the client saw it.
type frame struct {
	at    time.Duration // since the window's start
	token int
}

// reply is what the load generator keeps of one request.
type reply struct {
	req    int32 // request id, from 1
	client int   // the connection that sent it
	slot   int   // index into inputs.bodies
	items  int   // classifications (or tokens) asked for

	// Times since the window's start. due == sent on the closed loops.
	// free is when a connection became free to send it; on the open
	// loop free < due means the generator, not the system, chose the
	// send time. first is the first answer (== done except on decode).
	free, due, sent, first, done time.Duration

	status int
	err    string // transport or decoding error; "" with status 200 is an answer

	single *server.ClassifyResponse
	batch  *server.ClassifyBatchResponse
	frames []frame
	final  *server.DecodeDone
}

func (r *reply) answered() bool { return r.err == "" && r.status == http.StatusOK }

// loadgen sends requests to one stack and timestamps the replies.
type loadgen struct {
	sp     spec
	st     *stack
	in     *inputs
	client *http.Client
	conns  int
	ids    atomic.Int32
	// start is the origin of every reply time; set when a window opens.
	start time.Time
}

func newLoadgen(sp spec, st *stack, in *inputs, conns int) *loadgen {
	if sp.kind == closedBatch {
		conns = 1
	}
	if sp.kind == closedDecode {
		conns = max(1, conns-1)
	}
	return &loadgen{
		sp: sp, st: st, in: in, conns: conns,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
		}},
	}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// slotVectors lists the vectors request slot i carries.
func (lg *loadgen) slotVectors(slot int) [][]float32 {
	if lg.sp.kind == closedBatch {
		return lg.in.vectors[slot*batchItems : (slot+1)*batchItems]
	}
	return lg.in.vectors[slot : slot+1]
}

func (lg *loadgen) path() string {
	switch lg.sp.kind {
	case closedBatch:
		return "/v1/classify_batch"
	case closedDecode:
		return "/v1/decode"
	}
	return "/v1/classify"
}

// issue sends request slot `slot`, due at `due`, and reads the whole
// answer. traced says whether this request belongs to a traced window
// (warm-up and probe requests never do).
func (lg *loadgen) issue(client, slot int, free, due time.Duration, traced bool) reply {
	r := reply{req: lg.ids.Add(1), client: client, slot: slot, free: free, due: due, items: 1}
	switch lg.sp.kind {
	case closedBatch:
		r.items = batchItems
	case closedDecode:
		r.items = decodeTokens
	}
	hreq, err := http.NewRequest(http.MethodPost, lg.st.base+lg.path(), bytes.NewReader(lg.in.bodies[slot]))
	if err != nil {
		r.err = err.Error()
		return r
	}
	hreq.Header.Set("Content-Type", "application/json")
	if lg.st.apiKey != "" {
		hreq.Header.Set(tenant.HeaderAPIKey, lg.st.apiKey)
	}
	tr := lg.st.tr
	if !traced {
		tr = nil
	}
	var root span
	if tr != nil {
		root = span{Name: spanRequest, ID: tr.newID(), Req: r.req}
		hreq.Header.Set(hdrReq, strconv.Itoa(int(r.req)))
		hreq.Header.Set(hdrSpan, strconv.Itoa(int(root.ID)))
		vecs := lg.slotVectors(slot)
		tr.begin(r.req, vecs...)
		defer tr.end(vecs...)
	}
	r.sent = time.Since(lg.start)
	resp, err := lg.client.Do(hreq)
	if err != nil {
		r.err = err.Error()
		r.done = time.Since(lg.start)
		return r
	}
	r.status = resp.StatusCode
	if lg.sp.kind == closedDecode && resp.StatusCode == http.StatusOK {
		lg.readFrames(&r, resp.Body, tr, root.ID)
	} else {
		body, err := io.ReadAll(resp.Body)
		r.done = time.Since(lg.start)
		r.first = r.done
		if err != nil {
			r.err = err.Error()
		} else if resp.StatusCode == http.StatusOK {
			// Decoding the reply is the client's own work and is not timed.
			if lg.sp.kind == closedBatch {
				r.batch = new(server.ClassifyBatchResponse)
				err = json.Unmarshal(body, r.batch)
			} else {
				r.single = new(server.ClassifyResponse)
				err = json.Unmarshal(body, r.single)
			}
			if err != nil {
				r.err = "bad reply: " + err.Error()
			}
		}
	}
	_ = resp.Body.Close()
	if tr != nil {
		root.Start, root.End = lg.at(tr, r.due), lg.at(tr, r.done)
		tr.add(root)
		if r.sent > r.due {
			tr.add(span{Name: spanWait, ID: tr.newID(), Parent: root.ID, Req: r.req, Start: root.Start, End: lg.at(tr, r.sent)})
		}
	}
	return r
}

// at converts a time since the window's start to the tracer's clock.
func (lg *loadgen) at(tr *tracer, d time.Duration) int64 {
	return int64(lg.start.Sub(tr.epoch) + d)
}

// readFrames reads an ndjson decode stream, stamping every token
// frame as it arrives.
func (lg *loadgen) readFrames(r *reply, body io.Reader, tr *tracer, parent int32) {
	br := bufio.NewReaderSize(body, 4096)
	prev := r.sent
	for {
		line, err := br.ReadBytes('\n')
		now := time.Since(lg.start)
		if len(line) > 1 {
			if bytes.Contains(line, []byte(`"done":true`)) {
				r.final = new(server.DecodeDone)
				if jerr := json.Unmarshal(line, r.final); jerr != nil {
					r.err = "bad done frame: " + jerr.Error()
				}
			} else {
				var f server.DecodeFrame
				if jerr := json.Unmarshal(line, &f); jerr != nil {
					r.err = "bad token frame: " + jerr.Error()
				}
				if len(r.frames) == 0 {
					r.first = now
				}
				r.frames = append(r.frames, frame{at: now, token: f.Token})
				if tr != nil {
					tr.add(span{Name: spanToken, ID: tr.newID(), Parent: parent, Req: r.req, Start: lg.at(tr, prev), End: lg.at(tr, now), N: int32(f.T)})
				}
				prev = now
			}
		}
		if err != nil {
			r.done = now
			if err != io.EOF {
				r.err = err.Error()
			} else if r.final == nil {
				r.err = "stream ended without a done frame"
			} else if r.final.Error != "" {
				r.err = "decode: " + r.final.Error
			}
			return
		}
	}
}

// closedLoop runs lg.conns clients that each send, wait for the
// reply, and send again. A client stops after perClient requests
// (when > 0) or at its first reply past d (when > 0). Client c walks
// the slots c, c+conns, c+2·conns, …: no slot is in flight twice.
func (lg *loadgen) closedLoop(perClient int, d time.Duration, traced bool) []reply {
	lg.start = time.Now()
	out := make([][]reply, lg.conns)
	var wg sync.WaitGroup
	for c := 0; c < lg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots := len(lg.in.bodies) / lg.conns * lg.conns
			for i := 0; perClient == 0 || i < perClient; i++ {
				now := time.Since(lg.start)
				if d > 0 && now >= d {
					return
				}
				out[c] = append(out[c], lg.issue(c, (c+i*lg.conns)%slots, now, now, traced))
			}
		}()
	}
	wg.Wait()
	var all []reply
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// openLoop sends request i at due[i] on the first free connection.
// A request due while every connection is busy waits for one, and its
// latency still counts from its due time.
func (lg *loadgen) openLoop(due []time.Duration, traced bool) []reply {
	lg.start = time.Now()
	out := make([]reply, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < lg.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(out) {
					return
				}
				free := time.Since(lg.start)
				if wait := due[i] - free; wait > 0 {
					time.Sleep(wait)
				}
				out[i] = lg.issue(c, i%len(lg.in.bodies), free, due[i], traced)
			}
		}()
	}
	wg.Wait()
	return out
}

// run offers the workload's load for d and returns every reply.
func (lg *loadgen) run(d time.Duration, traced bool) []reply {
	if lg.sp.kind == openSingle {
		return lg.openLoop(poissonSchedule(lg.in.seed, lg.sp.rate, d.Seconds()), traced)
	}
	return lg.closedLoop(0, d, traced)
}

// warmUp sends enough requests per connection, before any window,
// that connections, scratch pools and lazily sized buffers exist.
func (lg *loadgen) warmUp() error {
	per := 8
	if lg.sp.kind == closedBatch || lg.sp.kind == closedDecode {
		per = 2 // 32 classifications or 64 tokens per connection
	}
	for _, r := range lg.closedLoop(per, 0, false) {
		if !r.answered() {
			return fmt.Errorf("warm-up request failed: status %d %s", r.status, r.err)
		}
	}
	return nil
}
