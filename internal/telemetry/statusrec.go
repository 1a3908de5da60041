package telemetry

import "net/http"

// StatusRecorder wraps a ResponseWriter to capture the status code
// for after-the-fact instrumentation (request logs, SLO observation).
// Shared by the serving layer and the cluster worker so both report
// the same notion of "what we answered".
type StatusRecorder struct {
	http.ResponseWriter
	Code int
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
