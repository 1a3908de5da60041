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

// DecodeRequest is the POST /v1/decode body. An empty Session opens a
// new session from H0; a non-empty one continues (or, with Close,
// ends) an existing session.
type DecodeRequest struct {
	Session string    `json:"session,omitempty"`
	H0      []float32 `json:"h0,omitempty"`
	// Mode is "greedy" (default) or "beam".
	Mode  string `json:"mode,omitempty"`
	Width int    `json:"width,omitempty"`
	// MaxTokens bounds this request's stream; <=0 decodes to the
	// session's end.
	MaxTokens int `json:"max_tokens,omitempty"`
	// Stream is "sse" (default: text/event-stream with one
	// "token" event per frame and a final "done" event) or "ndjson"
	// (one JSON object per line, last object has "done":true).
	Stream string `json:"stream,omitempty"`
	// Close ends the session instead of decoding.
	Close bool `json:"close,omitempty"`
}

// DecodeFrame is one streamed token event.
type DecodeFrame struct {
	Session  string  `json:"session"`
	T        int     `json:"t"`
	Token    int     `json:"token"`
	LogProb  float64 `json:"logprob"`
	M        int     `json:"m"`
	Degraded bool    `json:"degraded,omitempty"`
}

// DecodeDone is the stream's terminal event (and the response body
// for Close requests).
type DecodeDone struct {
	Session string `json:"session"`
	Done    bool   `json:"done"`
	Steps   int    `json:"steps"`
	// Tokens is the full sequence so far — for beam sessions the best
	// hypothesis, which may disagree with earlier provisional frames.
	Tokens   []int `json:"tokens,omitempty"`
	Finished bool  `json:"finished"`
	Evicted  bool  `json:"evicted,omitempty"`
	Closed   bool  `json:"closed,omitempty"`
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

func (s *Server) handleDecode(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { mDecodeNs.Observe(float64(time.Since(start))) }()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	svc := s.decodeSvc.Load()
	if svc == nil {
		writeError(w, http.StatusNotImplemented, "decode service not enabled (-decode)")
		return
	}
	var body DecodeRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}

	if body.Close {
		if body.Session == "" {
			writeError(w, http.StatusBadRequest, "close requires a session id")
			return
		}
		if err := svc.Close(body.Session); err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, DecodeDone{Session: body.Session, Done: true, Closed: true})
		return
	}

	var sess *decode.Session
	if body.Session == "" {
		if s.Draining() {
			writeUnavailable(w, r, ErrDraining)
			return
		}
		mode := decode.Mode(body.Mode)
		if mode == "" {
			mode = decode.Greedy
		}
		// A new session is one admission: it charges the owner tenant's
		// rate quota and counts against its concurrent-session cap until
		// the session leaves the service (close, eviction, shutdown).
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
		var err error
		sess, err = svc.OpenOwned(mode, body.Width, body.H0, ten.ReleaseSession)
		switch {
		case err == nil:
			ts.Admitted.Inc()
		case errors.Is(err, decode.ErrSessionLimit):
			ten.ReleaseSession()
			ts.Throttled.Inc()
			retryAfterHeader(w)
			writeErrorReason(w, r, http.StatusTooManyRequests, "session_limit", err.Error())
			return
		default:
			ten.ReleaseSession()
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else {
		var err error
		sess, err = svc.Get(body.Session)
		if err != nil {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
	}

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
			Session: sess.ID, T: tok.Step, Token: tok.Token,
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
		// Closed mid-stream: the prefix stands, and the done frame says so.
	case frames > 0:
		// The 200 is committed: the done frame carries the error, and
		// the mark tells the middleware what it was.
		telemetry.Mark(w, telemetry.OutcomeOfErr(r.Context(), runErr))
	case errors.Is(runErr, decode.ErrBusy):
		writeError(w, http.StatusConflict, runErr.Error())
		return
	case evicted:
		writeError(w, http.StatusGone, runErr.Error())
		return
	default:
		// A session this request opened and could not start is spent.
		if body.Session == "" {
			_ = svc.Close(sess.ID)
		}
		WriteFailure(w, r, runErr)
		return
	}
	done := DecodeDone{
		Session:  sess.ID,
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
	// A finished session is spent — free its slot immediately instead
	// of waiting out the TTL.
	if finished {
		_ = svc.Close(sess.ID)
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
