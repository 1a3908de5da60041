package telemetry

import (
	"io"
	"net/http"
	"sync/atomic"
	"testing"
)

// TestServeDebugPerCallCollectors: two debug servers in one process
// each run their own /metrics collectors, each mounts pprof and
// expvar, and stop closes the listener.
func TestServeDebugPerCallCollectors(t *testing.T) {
	var hitsA, hitsB atomic.Int32
	addrA, stopA, err := ServeDebug("127.0.0.1:0", func() { hitsA.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer stopA()
	addrB, stopB, err := ServeDebug("127.0.0.1:0", func() { hitsB.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer stopB()

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	get := func(addr, path string) {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s%s: status %d", addr, path, resp.StatusCode)
		}
	}

	get(addrB, "/metrics")
	if a, b := hitsA.Load(), hitsB.Load(); a != 0 || b != 1 {
		t.Fatalf("scraping B ran collectors A=%d B=%d, want 0 and 1", a, b)
	}
	get(addrA, "/metrics")
	if a, b := hitsA.Load(), hitsB.Load(); a != 1 || b != 1 {
		t.Fatalf("scraping A ran collectors A=%d B=%d, want 1 and 1", a, b)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1", "/debug/vars"} {
		get(addrB, path)
	}

	stopA()
	if resp, err := client.Get("http://" + addrA + "/metrics"); err == nil {
		resp.Body.Close()
		t.Fatal("debug listener still serving after stop")
	}
}
