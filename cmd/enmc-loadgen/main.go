// Command enmc-loadgen drives an enmc-serve instance with synthetic
// traffic and reports throughput and latency percentiles — the
// harness that makes the serving layer's admission-control and
// degradation behavior observable.
//
// Two load models:
//
//	closed loop (default): -concurrency N workers, each issuing the
//	    next request as soon as the previous answers — throughput
//	    finds the server's capacity.
//	open loop: -rate R fires R requests/second regardless of
//	    completions (bounded outstanding) — the model that exposes
//	    queueing collapse and the 429 admission path.
//
// Usage:
//
//	enmc-loadgen -addr localhost:8080 -dim 128 -duration 10s -concurrency 16
//	enmc-loadgen -addr localhost:8080 -dim 128 -rate 2000 -duration 10s
//	enmc-loadgen -addr localhost:8080 -dim 128 -batch 64   # /v1/classify_batch
//	enmc-loadgen -targets "lb1:8080,lb2:8080" -dim 128     # round-robin a router pool
//	enmc-loadgen -addr localhost:8080 -dim 128 \
//	    -tenant-mix "a:interactive:8,b:batch:2"         # multi-tenant QoS:
//	                                                    # weighted tenant traffic
//	                                                    # (X-Enmc-Api-Key = tenant
//	                                                    # name), per-tenant
//	                                                    # req/ok/429/503/p50/p99
//	enmc-loadgen -addr localhost:8080 -dim 128 -decode -rate 20
//	                                                       # streaming /v1/decode
//	                                                       # sessions: TTFT and
//	                                                       # inter-token-gap
//	                                                       # percentiles, dropped-
//	                                                       # stream accounting
//
// With -targets (comma-separated host:port list) each request
// round-robins across the pool and the report adds a per-target
// latency/error breakdown — the harness for load-testing a set of
// cluster routers from one process.
//
// The report tracks the serving layer's observability contract too:
// how many responses echoed X-Request-Id and whether 429s carried
// Retry-After. Bytes on the wire are accounted per request (body out;
// Content-Length in, counting the stream when the server chunks) and
// reported as B/req and MB/s, total and per target. The exit status is
// 1 when no request succeeded.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type result struct {
	code       int // HTTP status; 0 for transport error
	latency    time.Duration
	done       time.Time // completion timestamp (success-gap analysis)
	degraded   bool
	partial    bool   // response merged without some cluster shards
	items      int    // classifications carried (batch size or 1)
	target     int    // index into the target pool
	reqID      string // X-Request-Id echoed by the server
	retryAfter string // Retry-After on 429s (admission control)
	bytesOut   int64  // request body bytes sent
	bytesIn    int64  // response body bytes received
	tenant     int    // index into the -tenant-mix entries; -1 single-tenant
}

// countReader counts the bytes read through it — the fallback for
// responses the server streams without a Content-Length.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// pool round-robins requests across the target URLs.
type pool struct {
	urls []string
	next atomic.Uint64
}

func (p *pool) pick() (int, string) {
	i := int(p.next.Add(1)-1) % len(p.urls)
	return i, p.urls[i]
}

// mixEntry is one -tenant-mix entry: the tenant's name (sent as its
// API key), the class its traffic is expected to land in (reporting
// only — the server's tenant config is authoritative), and its draw
// weight.
type mixEntry struct {
	name, class string
	weight      int
}

// parseMix parses "a:interactive:8,b:batch:2". Weight defaults to 1;
// class may be empty ("a::3").
func parseMix(s string) ([]mixEntry, error) {
	var out []mixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		e := mixEntry{name: strings.TrimSpace(fields[0]), weight: 1}
		if e.name == "" {
			return nil, fmt.Errorf("tenant-mix entry %q: empty tenant name", part)
		}
		if len(fields) > 1 {
			e.class = strings.TrimSpace(fields[1])
		}
		if len(fields) > 2 {
			w, err := strconv.Atoi(strings.TrimSpace(fields[2]))
			if err != nil || w < 1 {
				return nil, fmt.Errorf("tenant-mix entry %q: bad weight", part)
			}
			e.weight = w
		}
		if len(fields) > 3 {
			return nil, fmt.Errorf("tenant-mix entry %q: want name:class:weight", part)
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -tenant-mix")
	}
	return out, nil
}

// pickTenant draws a mix index proportional to the entry weights.
func pickTenant(rng *rand.Rand, mix []mixEntry) int {
	total := 0
	for _, e := range mix {
		total += e.weight
	}
	n := rng.Intn(total)
	for i, e := range mix {
		n -= e.weight
		if n < 0 {
			return i
		}
	}
	return len(mix) - 1
}

func main() {
	addr := flag.String("addr", "localhost:8080", "enmc-serve host:port")
	targets := flag.String("targets", "", "comma-separated host:port pool round-robined per request (overrides -addr)")
	dim := flag.Int("dim", 128, "hidden dimension (must match the server)")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	concurrency := flag.Int("concurrency", 8, "closed-loop workers")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in req/s (0: closed loop)")
	batch := flag.Int("batch", 0, "send /v1/classify_batch with this many items (0: /v1/classify)")
	topK := flag.Int("topk", 5, "top_k to request")
	tenantMix := flag.String("tenant-mix", "", `weighted multi-tenant traffic: comma-separated name:class:weight entries (e.g. "a:interactive:8,b:batch:2"); each request carries X-Enmc-Api-Key = the drawn tenant's name, and the report adds a per-tenant breakdown`)
	decodeOn := flag.Bool("decode", false, "drive streaming /v1/decode sessions instead of classify traffic (-rate = session arrivals/s, -concurrency = closed-loop session workers)")
	decodeTokens := flag.Int("decode-tokens", 0, "tokens to request per decode session (0: session's max length)")
	decodeMode := flag.String("decode-mode", "greedy", "decode session mode: greedy or beam")
	decodeWidth := flag.Int("decode-width", 0, "beam width for -decode-mode beam")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request timeout")
	seed := flag.Int64("seed", 42, "feature generation seed")
	flag.Parse()

	var mix []mixEntry
	if *tenantMix != "" {
		var err error
		mix, err = parseMix(*tenantMix)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *decodeOn {
			fmt.Fprintln(os.Stderr, "-tenant-mix applies to classify traffic, not -decode")
			os.Exit(2)
		}
	}

	path := "/v1/classify"
	if *batch > 0 {
		path = "/v1/classify_batch"
	}
	if *decodeOn {
		path = "/v1/decode"
	}
	hosts := []string{*addr}
	if *targets != "" {
		hosts = hosts[:0]
		for _, t := range strings.Split(*targets, ",") {
			if t = strings.TrimSpace(t); t != "" {
				hosts = append(hosts, t)
			}
		}
		if len(hosts) == 0 {
			fmt.Fprintln(os.Stderr, "empty -targets list")
			os.Exit(2)
		}
	}
	p := &pool{urls: make([]string, len(hosts))}
	for i, h := range hosts {
		p.urls[i] = "http://" + h + path
	}

	client := &http.Client{
		Timeout:   *timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: *concurrency + 64},
	}

	if *decodeOn {
		runDecode(client, p, *dim, *decodeTokens, *decodeMode, *decodeWidth,
			*seed, *rate, *concurrency, *duration)
		return
	}

	var (
		mu      sync.Mutex
		results []result
	)
	record := func(r result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}

	runStart := time.Now()
	deadline := runStart.Add(*duration)
	var wg sync.WaitGroup
	if *rate > 0 {
		openLoop(&wg, client, p, mix, *dim, *batch, *topK, *seed, *rate, deadline, record)
	} else {
		closedLoop(&wg, client, p, mix, *dim, *batch, *topK, *seed, *concurrency, deadline, record)
	}
	wg.Wait()
	summarize(results, hosts, mix, *duration, runStart, time.Now())
}

func closedLoop(wg *sync.WaitGroup, client *http.Client, p *pool, mix []mixEntry, dim, batch, topK int, seed int64, workers int, deadline time.Time, record func(result)) {
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(id)))
			for time.Now().Before(deadline) {
				tn, key := drawTenant(rng, mix)
				r := issue(client, p, payload(rng, dim, batch, topK), key)
				r.tenant = tn
				record(r)
			}
		}(w)
	}
}

// drawTenant picks this request's tenant identity from the mix: its
// index (for the per-tenant report) and its API key. No mix means the
// anonymous single-tenant run the loadgen always supported.
func drawTenant(rng *rand.Rand, mix []mixEntry) (int, string) {
	if len(mix) == 0 {
		return -1, ""
	}
	i := pickTenant(rng, mix)
	return i, mix[i].name
}

func openLoop(wg *sync.WaitGroup, client *http.Client, p *pool, mix []mixEntry, dim, batch, topK int, seed int64, rate float64, deadline time.Time, record func(result)) {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	// Bound outstanding requests so an unresponsive server degrades
	// to shed load here rather than unbounded goroutine growth.
	sem := make(chan struct{}, 4096)
	rng := rand.New(rand.NewSource(seed))
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for now := range ticker.C {
		if !now.Before(deadline) {
			return
		}
		body := payload(rng, dim, batch, topK)
		tn, key := drawTenant(rng, mix)
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := issue(client, p, body, key)
				r.tenant = tn
				record(r)
				<-sem
			}()
		default:
			record(result{code: 0, tenant: tn}) // shed at the generator
		}
	}
}

func payload(rng *rand.Rand, dim, batch, topK int) []byte {
	vec := func() []float32 {
		h := make([]float32, dim)
		for i := range h {
			h[i] = float32(rng.NormFloat64())
		}
		return h
	}
	var v interface{}
	if batch > 0 {
		b := make([][]float32, batch)
		for i := range b {
			b[i] = vec()
		}
		v = map[string]interface{}{"batch": b, "top_k": topK}
	} else {
		v = map[string]interface{}{"h": vec(), "top_k": topK}
	}
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return buf
}

func issue(client *http.Client, p *pool, body []byte, tenantKey string) result {
	target, url := p.pick()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenantKey != "" {
		req.Header.Set("X-Enmc-Api-Key", tenantKey)
	}
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return result{code: 0, latency: time.Since(start), done: time.Now(), target: target, bytesOut: int64(len(body))}
	}
	defer resp.Body.Close()
	r := result{
		code: resp.StatusCode, latency: time.Since(start), done: time.Now(),
		items: 1, target: target,
		reqID:      resp.Header.Get("X-Request-Id"),
		retryAfter: resp.Header.Get("Retry-After"),
		bytesOut:   int64(len(body)),
	}
	// Bytes-on-wire accounting: trust Content-Length when the server
	// declared one, count the stream otherwise (chunked responses).
	// Either way the body is drained to EOF — also what lets the
	// transport return the connection to the keep-alive pool.
	counted := &countReader{r: resp.Body}
	if resp.StatusCode == http.StatusOK {
		var parsed struct {
			Degraded bool `json:"degraded"`
			Partial  bool `json:"partial"`
			Results  []struct {
				Class int `json:"class"`
			} `json:"results"`
		}
		if err := json.NewDecoder(counted).Decode(&parsed); err == nil {
			r.degraded = parsed.Degraded
			r.partial = parsed.Partial
			if n := len(parsed.Results); n > 0 {
				r.items = n
			}
		}
	}
	_, _ = io.Copy(io.Discard, counted)
	if resp.ContentLength >= 0 {
		r.bytesIn = resp.ContentLength
	} else {
		r.bytesIn = counted.n
	}
	return r
}

func summarize(results []result, hosts []string, mix []mixEntry, d time.Duration, runStart, runEnd time.Time) {
	var ok, degraded, partial, items int
	var bytesOut, bytesIn int64
	var lats []time.Duration
	var successTimes []time.Time
	errByStatus := map[int]int{} // status → count; 0 = transport error / generator shed
	perTarget := make([]targetStats, len(hosts))
	for _, r := range results {
		t := &perTarget[r.target]
		t.total++
		t.bytesOut += r.bytesOut
		t.bytesIn += r.bytesIn
		bytesOut += r.bytesOut
		bytesIn += r.bytesIn
		// Observability contract: every server response should echo a
		// request ID; 429s should carry Retry-After.
		if r.reqID != "" {
			t.withReqID++
		}
		if r.code == http.StatusTooManyRequests && r.retryAfter != "" {
			t.retry429++
			if t.retryVals == nil {
				t.retryVals = map[string]bool{}
			}
			t.retryVals[r.retryAfter] = true
		}
		if r.code == http.StatusOK {
			ok++
			items += r.items
			lats = append(lats, r.latency)
			successTimes = append(successTimes, r.done)
			t.ok++
			t.lats = append(t.lats, r.latency)
			if r.degraded {
				degraded++
			}
			if r.partial {
				partial++
				t.partial++
			}
			continue
		}
		errByStatus[r.code]++
	}
	fmt.Printf("requests: %d over %s\n", len(results), d)
	fmt.Printf("  ok: %d (%d classifications, %.1f/s)  degraded: %d (%.1f%%)  partial: %d (%.1f%%)\n",
		ok, items, float64(items)/d.Seconds(), degraded, pct(degraded, ok), partial, pct(partial, ok))

	// Per-status error breakdown, ascending by status code (0 =
	// transport error or generator shed).
	codes := make([]int, 0, len(errByStatus))
	for c := range errByStatus {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	if len(codes) == 0 {
		fmt.Printf("  errors: none\n")
	} else {
		fmt.Printf("  errors:")
		for _, c := range codes {
			label := fmt.Sprintf("%d %s", c, http.StatusText(c))
			if c == 0 {
				label = "transport/shed"
			}
			fmt.Printf("  [%s] %d (%.1f%%)", label, errByStatus[c], pct(errByStatus[c], len(results)))
		}
		fmt.Println()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Printf("  latency p50 %s  p90 %s  p99 %s  max %s\n",
			quantile(lats, 0.50), quantile(lats, 0.90), quantile(lats, 0.99), lats[len(lats)-1])
	}
	if n := len(results); n > 0 {
		fmt.Printf("  wire: %.0f B/req out  %.0f B/req in  %.2f MB/s\n",
			float64(bytesOut)/float64(n), float64(bytesIn)/float64(n), mbPerSec(bytesOut+bytesIn, d))
	}

	// Request-ID echo coverage (every server response should carry one)
	// and Retry-After presence on 429s, summed over the pool.
	var withID, retry429 int
	for _, t := range perTarget {
		withID += t.withReqID
		retry429 += t.retry429
	}
	fmt.Printf("  request-id echoed: %d/%d  429-with-retry-after: %d\n", withID, len(results), retry429)

	// Max gap between successes, anchored at run start and end: a hot
	// swap (or drain bug) that stalls serving shows up here even when
	// every request eventually succeeds.
	if len(successTimes) > 0 {
		sort.Slice(successTimes, func(i, j int) bool { return successTimes[i].Before(successTimes[j]) })
		maxGap := successTimes[0].Sub(runStart)
		for i := 1; i < len(successTimes); i++ {
			if g := successTimes[i].Sub(successTimes[i-1]); g > maxGap {
				maxGap = g
			}
		}
		if g := runEnd.Sub(successTimes[len(successTimes)-1]); g > maxGap {
			maxGap = g
		}
		fmt.Printf("  max gap between successes: %s\n", maxGap.Round(time.Millisecond))
	}

	printTenants(results, mix)

	// Per-target breakdown: only meaningful (and only printed) when a
	// -targets pool was given.
	if len(hosts) > 1 {
		for i, t := range perTarget {
			line := fmt.Sprintf("  target %-21s  req %d  ok %d  err %d", hosts[i], t.total, t.ok, t.total-t.ok)
			if t.partial > 0 {
				line += fmt.Sprintf("  partial %d", t.partial)
			}
			line += fmt.Sprintf("  req-id %d/%d", t.withReqID, t.total)
			if t.retry429 > 0 {
				line += fmt.Sprintf("  retry-after %d (%s)", t.retry429, strings.Join(sortedKeys(t.retryVals), ","))
			}
			if len(t.lats) > 0 {
				sort.Slice(t.lats, func(a, b int) bool { return t.lats[a] < t.lats[b] })
				line += fmt.Sprintf("  p50 %s  p99 %s", quantile(t.lats, 0.50), quantile(t.lats, 0.99))
			}
			line += fmt.Sprintf("  %.2f MB/s", mbPerSec(t.bytesOut+t.bytesIn, d))
			fmt.Println(line)
		}
	}

	if ok == 0 {
		fmt.Fprintln(os.Stderr, "no successful requests")
		os.Exit(1)
	}
}

// printTenants prints the per-tenant breakdown of a -tenant-mix run —
// the QoS split — in mix order.
func printTenants(results []result, mix []mixEntry) {
	type row struct {
		req, ok, s429, s503, other int
		lats                       []time.Duration
	}
	rows := make([]row, len(mix))
	for _, r := range results {
		if r.tenant < 0 {
			continue
		}
		tn := &rows[r.tenant]
		tn.req++
		switch r.code {
		case http.StatusOK:
			tn.ok++
			tn.lats = append(tn.lats, r.latency)
		case http.StatusTooManyRequests:
			tn.s429++
		case http.StatusServiceUnavailable:
			tn.s503++
		default: // transport failures and any other status
			tn.other++
		}
	}
	for i, e := range mix {
		tn := rows[i]
		var p50, p99 time.Duration
		if len(tn.lats) > 0 {
			sort.Slice(tn.lats, func(a, b int) bool { return tn.lats[a] < tn.lats[b] })
			p50, p99 = quantile(tn.lats, 0.50), quantile(tn.lats, 0.99)
		}
		fmt.Printf("  tenant %-12s %-11s req %-6d ok %-6d 429 %-5d 503 %-4d other %-4d p50 %-9s p99 %s\n",
			e.name, e.class, tn.req, tn.ok, tn.s429, tn.s503, tn.other,
			p50.Round(10*time.Microsecond), p99.Round(10*time.Microsecond))
	}
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// targetStats accumulates the per-target breakdown of a -targets run,
// including the request-ID echo and 429 Retry-After observations.
type targetStats struct {
	total, ok, partial int
	withReqID          int
	retry429           int
	retryVals          map[string]bool
	lats               []time.Duration
	bytesOut, bytesIn  int64
}

func mbPerSec(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

func pct(n, of int) float64 {
	if of == 0 {
		return 0
	}
	return 100 * float64(n) / float64(of)
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
