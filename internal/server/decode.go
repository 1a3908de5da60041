package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"enmc/internal/decode"
	"enmc/internal/telemetry"
)

var mDecodeNs = telemetry.Default().Histogram("server.http.decode_ns", telemetry.LatencyBuckets())

// DecodeRequest is the POST /v1/decode body. Each request opens one
// decode session from H0, streams it, and closes it when the response
// ends.
type DecodeRequest struct {
	H0 []float32 `json:"h0,omitempty"`
	// Mode is "greedy" (default) or "beam".
	Mode  string `json:"mode,omitempty"`
	Width int    `json:"width,omitempty"`
	// MaxTokens bounds the stream; <=0 decodes to the decoder's
	// MaxLen.
	MaxTokens int `json:"max_tokens,omitempty"`
	// Stream is "sse" (default: text/event-stream with one
	// "token" event per frame and a final "done" event) or "ndjson"
	// (one JSON object per line, last object has "done":true).
	Stream string `json:"stream,omitempty"`
}

// DecodeFrame is one streamed token event.
type DecodeFrame struct {
	T        int     `json:"t"`
	Token    int     `json:"token"`
	LogProb  float64 `json:"logprob"`
	M        int     `json:"m"`
	Degraded bool    `json:"degraded,omitempty"`
}

// DecodeDone is the stream's terminal event.
type DecodeDone struct {
	Done  bool `json:"done"`
	Steps int  `json:"steps"`
	// Tokens is the full sequence — for beam sessions the best
	// hypothesis, which may disagree with earlier provisional frames.
	Tokens []int `json:"tokens,omitempty"`
	// Finished says the stream reached the decoder's MaxLen rather
	// than MaxTokens.
	Finished bool `json:"finished"`
	// Evicted says the decode service shut down mid-stream.
	Evicted bool `json:"evicted,omitempty"`
	// CacheHitRate is the session's cumulative candidate-cache hit
	// rate (0 when the scorer has no cache, e.g. cluster mode).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// LogProb is the best hypothesis's cumulative log-probability
	// (beam sessions).
	LogProb float64 `json:"logprob,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// SetDecode installs (or, with nil, uninstalls) the streaming decode
// service behind POST /v1/decode. Safe to call while serving.
func (s *Server) SetDecode(svc *decode.Service) {
	if svc == nil {
		s.decodeSvc.Store(nil)
		return
	}
	s.decodeSvc.Store(svc)
}

// handleDecode opens one session, streams it and closes it: every exit
// after the open returns the session and the tenant's session slot.
func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { mDecodeNs.Observe(float64(time.Since(start))) }()
	var body DecodeRequest
	if !decodePost(w, r, &body) {
		return
	}
	svc := s.decodeSvc.Load()
	if svc == nil {
		writeError(w, http.StatusNotImplemented, "decode service not enabled (-decode)")
		return
	}
	if s.Draining() {
		writeUnavailable(w, r, ErrDraining)
		return
	}
	mode := decode.Mode(body.Mode)
	if mode == "" {
		mode = decode.Greedy
	}
	// A session is one admission: it charges the owner tenant's rate
	// quota and holds one of its concurrent sessions until the response
	// ends.
	ten := s.tenantFor(r)
	ts := s.tstats.For(ten)
	if !s.allowQuota(w, r, ten, ts, 1) {
		return
	}
	if !ten.AcquireSession() {
		ts.Throttled.Inc()
		retryAfterHeader(w)
		writeErrorReason(w, r, http.StatusTooManyRequests, "session_quota",
			fmt.Sprintf("tenant %s at its session cap (%d)", ten.Name, ten.MaxSessions()))
		return
	}
	defer ten.ReleaseSession()
	sess, err := svc.Open(mode, body.Width, body.H0)
	switch {
	case err == nil:
		ts.Admitted.Inc()
	case errors.Is(err, decode.ErrSessionLimit):
		ts.Throttled.Inc()
		retryAfterHeader(w)
		writeErrorReason(w, r, http.StatusTooManyRequests, "session_limit", err.Error())
		return
	case errors.Is(err, decode.ErrEvicted):
		writeUnavailable(w, r, ErrDraining)
		return
	default:
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer svc.Close(sess.ID)

	n := body.MaxTokens
	if n <= 0 || n > svc.MaxLen() {
		n = svc.MaxLen()
	}
	sse := body.Stream != "ndjson"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	// frames counts the frames begun: the first write commits the 200,
	// and everything before it can still surface as a real status.
	frames := 0
	emit := func(tok decode.Token) error {
		frames++
		err := writeFrame(w, enc, sse, "token", DecodeFrame{
			T: tok.Step, Token: tok.Token,
			LogProb: tok.LogProb, M: tok.M, Degraded: tok.Degraded,
		})
		if err == nil && flusher != nil {
			flusher.Flush()
		}
		return err
	}
	finished, runErr := sess.Run(r.Context(), n, emit)
	if meta := metaFrom(r.Context()); meta != nil {
		meta.items = frames
		if runErr != nil {
			meta.errMsg = runErr.Error()
		}
	}
	evicted := errors.Is(runErr, decode.ErrEvicted)
	switch {
	case runErr == nil:
	case frames > 0 && evicted:
		// Shut down mid-stream: the prefix stands, and the done frame
		// says so.
	case frames > 0:
		// The 200 is committed: the done frame carries the error, and
		// the mark tells the middleware what it was.
		telemetry.Mark(w, telemetry.OutcomeOfErr(r.Context(), runErr))
	case evicted:
		writeUnavailable(w, r, ErrDraining)
		return
	default:
		WriteFailure(w, r, runErr)
		return
	}
	done := DecodeDone{
		Done:     true,
		Steps:    sess.Step(),
		Tokens:   sess.Tokens(),
		Finished: finished,
		Evicted:  evicted,
		LogProb:  sess.BestLogProb(),
	}
	if hits, misses := sess.CacheStats(); hits+misses > 0 {
		done.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	if runErr != nil && !evicted {
		done.Error = runErr.Error()
	}
	if err := writeFrame(w, enc, sse, "done", done); err == nil && flusher != nil {
		flusher.Flush()
	}
}

func writeFrame(w http.ResponseWriter, enc *json.Encoder, sse bool, event string, v any) error {
	if sse {
		if _, err := fmt.Fprintf(w, "event: %s\ndata: ", event); err != nil {
			return err
		}
		if err := enc.Encode(v); err != nil {
			return err
		}
		_, err := fmt.Fprint(w, "\n")
		return err
	}
	return enc.Encode(v)
}
