package testkit_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"enmc/internal/testkit"
)

const faultBody = "0123456789abcdef"

func faultServer(t *testing.T) (*httptest.Server, *http.Transport) {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(rw, faultBody)
	}))
	t.Cleanup(srv.Close)
	base := &http.Transport{}
	t.Cleanup(base.CloseIdleConnections)
	return srv, base
}

// TestFaultTransportFaults: each fault does what it says, and only to
// the requests Match selects.
func TestFaultTransportFaults(t *testing.T) {
	testkit.NoLeaks(t)
	srv, base := faultServer(t)
	get := func(ft *testkit.FaultTransport, path string, timeout time.Duration) (string, error) {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+path, nil)
		resp, err := (&http.Client{Transport: ft}).Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return string(b), err
	}
	newFT := func(f testkit.Fault) *testkit.FaultTransport {
		ft := testkit.NewFaultTransport(1, base)
		ft.Match = func(req *http.Request) bool { return req.URL.Path == "/faulty" }
		ft.Rate, ft.Faults = 1, []testkit.Fault{f}
		return ft
	}

	ft := newFT(testkit.FaultDelay)
	ft.Delay = 50 * time.Millisecond
	start := time.Now()
	if body, err := get(ft, "/faulty", time.Minute); err != nil || body != faultBody {
		t.Fatalf("delay: %q, %v", body, err)
	}
	if d := time.Since(start); d < ft.Delay {
		t.Fatalf("delay: answered after %v, want ≥ %v", d, ft.Delay)
	}

	ft = newFT(testkit.FaultStall)
	if _, err := get(ft, "/faulty", 50*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stall: err = %v, want the context's deadline", err)
	}
	if body, err := get(ft, "/healthy", time.Minute); err != nil || body != faultBody {
		t.Fatalf("stall transport on an unmatched path: %q, %v", body, err)
	}
	if n := ft.Injected(testkit.FaultStall); n != 1 {
		t.Fatalf("stall injected %d times, want 1", n)
	}

	ft = newFT(testkit.FaultReset)
	if _, err := get(ft, "/faulty", time.Minute); !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("reset: err = %v, want ECONNRESET", err)
	}

	ft = newFT(testkit.FaultCut)
	ft.Cut = func(n int) int { return n - 3 }
	if body, err := get(ft, "/faulty", time.Minute); err != nil || body != faultBody[:len(faultBody)-3] {
		t.Fatalf("cut: %q, %v, want a clean short body", body, err)
	}
}

// TestFaultTransportSeeded: the same seed draws the same faults and
// cut points for the same request sequence.
func TestFaultTransportSeeded(t *testing.T) {
	testkit.NoLeaks(t)
	srv, base := faultServer(t)
	trace := func(seed int64) string {
		ft := testkit.NewFaultTransport(seed, base)
		ft.Rate, ft.Faults = 0.5, []testkit.Fault{testkit.FaultCut, testkit.FaultReset}
		var b strings.Builder
		for i := 0; i < 32; i++ {
			resp, err := (&http.Client{Transport: ft}).Get(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				b.WriteString("reset|")
				continue
			}
			b.WriteString(string(body) + "|")
		}
		return b.String()
	}
	a, b := trace(7), trace(7)
	if a != b {
		t.Fatalf("seed 7 drew two sequences:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "reset|") || !strings.Contains(a, faultBody+"|") {
		t.Fatalf("rate 0.5 over 32 requests drew no mix: %s", a)
	}
}
