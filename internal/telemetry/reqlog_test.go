package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRequestLogJSON(t *testing.T) {
	var buf bytes.Buffer
	rl := NewRequestLog(&buf, RequestLogOptions{JSON: true, Slow: 100 * time.Millisecond})
	rl.Log(RequestEvent{
		RequestID:     "req-1",
		TraceID:       "trace-1",
		Tenant:        "acme",
		Method:        "POST",
		Path:          "/v1/classify",
		Status:        200,
		Latency:       3 * time.Millisecond,
		Items:         1,
		BatchSize:     8,
		QueueNs:       42_000,
		ModelVersion:  "v3",
		Outcome:       Partial,
		MissingShards: []int{2},
	})
	var rec map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not one JSON object per line: %v\n%s", err, buf.String())
	}
	want := map[string]interface{}{
		"level": "INFO", "msg": "request",
		"req_id": "req-1", "trace_id": "trace-1", "tenant": "acme",
		"method": "POST", "path": "/v1/classify",
		"status": float64(200), "latency_us": float64(3000),
		"items": float64(1), "batch": float64(8), "queue_us": float64(42),
		"model_version": "v3", "outcome": "partial",
	}
	for k, v := range want {
		if rec[k] != v {
			t.Errorf("field %q = %v, want %v", k, rec[k], v)
		}
	}
	if _, present := rec["slow"]; present {
		t.Error("fast request marked slow")
	}
	if _, present := rec["degraded"]; present {
		t.Error("zero-value field degraded was emitted")
	}
}

func TestRequestLogSeverity(t *testing.T) {
	cases := []struct {
		name  string
		ev    RequestEvent
		level string
		slow  bool
	}{
		{"ok", RequestEvent{Status: 200, Latency: time.Millisecond}, "INFO", false},
		{"slow", RequestEvent{Status: 200, Latency: time.Second}, "WARN", true},
		{"partial", RequestEvent{Status: 200, Outcome: Partial, Latency: time.Millisecond}, "INFO", false},
		{"shed", RequestEvent{Status: 429, Outcome: Shed, Latency: time.Millisecond, Err: "shed: load shed"}, "WARN", false},
		{"drain", RequestEvent{Status: 503, Outcome: Shed, Latency: time.Millisecond}, "WARN", false},
		{"bad input", RequestEvent{Status: 400, Outcome: BadInput, Latency: time.Millisecond}, "WARN", false},
		{"caller cancelled", RequestEvent{Status: 499, Outcome: CallerCancelled, Latency: time.Millisecond}, "INFO", false},
		{"deadline", RequestEvent{Status: 504, Outcome: Deadline, Latency: time.Second}, "ERROR", true},
		{"server error", RequestEvent{Status: 500, Outcome: Fault, Latency: time.Millisecond}, "ERROR", false},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		rl := NewRequestLog(&buf, RequestLogOptions{JSON: true, Slow: 100 * time.Millisecond})
		rl.Log(c.ev)
		var rec map[string]interface{}
		if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rec["level"] != c.level {
			t.Errorf("%s: level = %v, want %s", c.name, rec["level"], c.level)
		}
		if _, present := rec["slow"]; present != c.slow {
			t.Errorf("%s: slow marker present=%v, want %v", c.name, present, c.slow)
		}
		if rec["outcome"] != c.ev.Outcome.String() || rec["error"] != nil && rec["error"] != c.ev.Err {
			t.Errorf("%s: outcome %v error %v, want %s %q", c.name, rec["outcome"], rec["error"], c.ev.Outcome, c.ev.Err)
		}
	}
}

func TestRequestLogTextModeAndNil(t *testing.T) {
	var buf bytes.Buffer
	rl := NewRequestLog(&buf, RequestLogOptions{})
	rl.Log(RequestEvent{Status: 200, Path: "/v1/classify", RequestID: "r"})
	if !strings.Contains(buf.String(), "path=/v1/classify") {
		t.Fatalf("text mode output unexpected: %s", buf.String())
	}
	var nilLog *RequestLog
	nilLog.Log(RequestEvent{Status: 500}) // must not panic
}
