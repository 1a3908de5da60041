package telemetry

import (
	"context"
	"errors"
	"net/http"
)

// Outcome is what one answer means: the SLO windows, the request
// log's level and the per-outcome counters all derive from it. Only
// OutcomeOf and OutcomeOfErr decide it, unless a handler Marks it.
type Outcome uint8

const (
	OK              Outcome = iota // answered in full (2xx/3xx)
	Partial                        // answered from the surviving shards
	Shed                           // turned away under load or drain (429, 503 draining)
	BadInput                       // the caller's request was wrong (other 4xx)
	CallerCancelled                // the caller hung up (499)
	Deadline                       // the caller's deadline passed (504)
	Fault                          // the server failed (other 5xx)
	NumOutcomes
)

// StatusClientClosed (nginx's 499) answers a caller that hung up.
const StatusClientClosed = 499

func (o Outcome) String() string {
	return [...]string{"ok", "partial", "shed", "bad_input", "caller_cancelled", "deadline", "fault"}[o]
}

// OutcomeOf is the status table.
func OutcomeOf(status int) Outcome {
	switch {
	case status < 400:
		return OK
	case status == http.StatusTooManyRequests:
		return Shed
	case status == StatusClientClosed:
		return CallerCancelled
	case status == http.StatusGatewayTimeout:
		return Deadline
	case status < 500:
		return BadInput
	}
	return Fault
}

// OutcomeOfErr judges work that ended with err under the caller's ctx:
// an ended caller context makes a failure the caller's, not a Fault.
func OutcomeOfErr(ctx context.Context, err error) Outcome {
	switch cerr := ctx.Err(); {
	case err == nil:
		return OK
	case errors.Is(cerr, context.Canceled):
		return CallerCancelled
	case errors.Is(cerr, context.DeadlineExceeded):
		return Deadline
	}
	return Fault
}

// OutcomeCounters registers name{outcome=…} for every outcome up
// front, so counting an answer is an index, not a registry lookup.
func OutcomeCounters(reg *Registry, name string) (c [NumOutcomes]*Counter) {
	for o := range c {
		c[o] = reg.Counter(LabeledName(name, map[string]string{"outcome": Outcome(o).String()}))
	}
	return c
}

// StatusRecorder wraps a ResponseWriter to capture the status code and
// outcome for after-the-fact instrumentation. Shared by the serving
// layer and the cluster worker so both report the same notion of "what
// we answered".
type StatusRecorder struct {
	http.ResponseWriter
	Code int
	mark Outcome
}

// Mark sets the outcome of the answer on w, when w is a StatusRecorder,
// where the status cannot tell: a draining 503 (Shed), a 200 merged
// from partial shards, a stream that failed after its 200.
func Mark(w http.ResponseWriter, o Outcome) {
	if r, ok := w.(*StatusRecorder); ok {
		r.mark = o
	}
}

// Outcome is the handler's mark, else the status table's judgement.
func (r *StatusRecorder) Outcome() Outcome {
	if r.mark != OK {
		return r.mark
	}
	return OutcomeOf(r.Status())
}

// WriteHeader records the code and forwards.
func (r *StatusRecorder) WriteHeader(code int) {
	if r.Code == 0 {
		r.Code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

// Write implies 200 on the first write, like net/http.
func (r *StatusRecorder) Write(b []byte) (int, error) {
	if r.Code == 0 {
		r.Code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Status returns the recorded code (200 if the handler never wrote).
func (r *StatusRecorder) Status() int {
	if r.Code == 0 {
		return http.StatusOK
	}
	return r.Code
}

// Flush forwards to the underlying writer when it supports it, so
// wrapping does not break streaming handlers.
func (r *StatusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unmatched is the one SLO endpoint label every request without a
// route shares.
const Unmatched = "unmatched"

// Endpoint is the SLO label for r: the pattern mux routes it to, or
// Unmatched, so the labels a server tracks are its routes and never
// grow with outside input.
func Endpoint(mux *http.ServeMux, r *http.Request) string {
	if _, pattern := mux.Handler(r); pattern != "" {
		return pattern
	}
	return Unmatched
}
