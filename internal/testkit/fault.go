package testkit

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Fault is one failure FaultTransport can inject into a round trip.
type Fault int

// The injectable faults.
const (
	// FaultDelay holds the request for FaultTransport.Delay (or until
	// its context ends), then sends it.
	FaultDelay Fault = iota
	// FaultStall never sends the request: the round trip blocks until
	// the request's context ends and fails with its error, as a peer
	// that accepted the connection and went silent would.
	FaultStall
	// FaultReset sends the request and delivers the response headers,
	// then fails the first body read with ECONNRESET.
	FaultReset
	// FaultCut sends the request and delivers a prefix of the response
	// body followed by a clean EOF, with Content-Length matching the
	// prefix: the transport sees a complete response, so only the
	// receiver's own framing can tell the body was cut.
	FaultCut
	numFaults
)

func (f Fault) String() string {
	switch f {
	case FaultDelay:
		return "delay"
	case FaultStall:
		return "stall"
	case FaultReset:
		return "reset"
	case FaultCut:
		return "cut"
	}
	return "fault?"
}

// FaultTransport is an http.RoundTripper that injects seeded faults
// into the round trips Match selects. Every random choice — whether a
// request is faulted, which fault, where a body is cut — comes from
// one seeded source, so a failing run replays from its seed (given the
// same request order). Configure the fields before the first round
// trip; they are not synchronized.
type FaultTransport struct {
	// Base carries the requests (default http.DefaultTransport).
	Base http.RoundTripper
	// Match selects the requests that may be faulted; nil selects all.
	Match func(*http.Request) bool
	// Rate is the probability a selected request is faulted.
	Rate float64
	// Faults are drawn uniformly for each faulted request.
	Faults []Fault
	// Delay is how long FaultDelay holds a request.
	Delay time.Duration
	// Cut returns how many bytes of an n-byte body FaultCut keeps;
	// nil draws the count uniformly from [0, n).
	Cut func(n int) int

	mu       sync.Mutex
	rng      *rand.Rand
	injected [numFaults]atomic.Int64
}

// NewFaultTransport returns a transport over base (nil: the default
// transport) whose random choices are drawn from seed. It injects
// nothing until Rate and Faults are set.
func NewFaultTransport(seed int64, base http.RoundTripper) *FaultTransport {
	return &FaultTransport{Base: base, rng: rand.New(rand.NewSource(seed))}
}

// Injected reports how many times fault f has been injected.
func (ft *FaultTransport) Injected(f Fault) int64 { return ft.injected[f].Load() }

// CloseIdleConnections forwards to Base, so http.Client.CloseIdleConnections
// reaches the pooled connections underneath.
func (ft *FaultTransport) CloseIdleConnections() {
	if c, ok := ft.base().(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func (ft *FaultTransport) base() http.RoundTripper {
	if ft.Base != nil {
		return ft.Base
	}
	return http.DefaultTransport
}

// draw decides the fault for one request; ok is false when it passes
// through untouched.
func (ft *FaultTransport) draw(req *http.Request) (f Fault, ok bool) {
	if len(ft.Faults) == 0 || (ft.Match != nil && !ft.Match(req)) {
		return 0, false
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	if ft.rng.Float64() >= ft.Rate {
		return 0, false
	}
	return ft.Faults[ft.rng.Intn(len(ft.Faults))], true
}

// cutAt picks FaultCut's kept prefix of an n-byte body.
func (ft *FaultTransport) cutAt(n int) int {
	if ft.Cut != nil {
		return min(max(ft.Cut(n), 0), n)
	}
	if n == 0 {
		return 0
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.rng.Intn(n)
}

// RoundTrip implements http.RoundTripper.
func (ft *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f, ok := ft.draw(req)
	if !ok {
		return ft.base().RoundTrip(req)
	}
	ft.injected[f].Add(1)
	switch f {
	case FaultDelay:
		t := time.NewTimer(ft.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-req.Context().Done():
			closeBody(req)
			return nil, req.Context().Err()
		}
	case FaultStall:
		// A RoundTripper must close the request body even when it
		// never sends it.
		closeBody(req)
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	resp, err := ft.base().RoundTrip(req)
	if err != nil {
		return resp, err
	}
	switch f {
	case FaultReset:
		resp.Body.Close()
		resp.Body = io.NopCloser(errReader{&net.OpError{
			Op: "read", Net: "tcp", Err: os.NewSyscallError("read", syscall.ECONNRESET),
		}})
	case FaultCut:
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		body = body[:ft.cutAt(len(body))]
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
	}
	return resp, nil
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
