package main

// The -decode scenario: instead of request/response classification
// traffic, each "request" is a streaming /v1/decode session — open
// with a random h0, read token frames as they arrive, finish on the
// terminal done frame. The latency shape of a stream is different
// from a unary call, so the scenario measures what a stream consumer
// feels: TTFT (request start → first token frame), the inter-token
// gap distribution, and per-session token counts — plus the count of
// dropped streams (cut before their done frame).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// decodeResult is one session's observation.
type decodeResult struct {
	code       int // status of the opening response; 0 = transport error
	dropped    bool
	evicted    bool
	tokens     int
	ttft       time.Duration
	gaps       []time.Duration
	latency    time.Duration // whole-session wall time
	done       time.Time
	target     int
	retryAfter string
	bytesOut   int64
	bytesIn    int64
}

// decodeFrame is the superset of the server's token and done frames
// the scenario needs (schema in internal/server/decode.go).
type decodeFrame struct {
	Done    bool   `json:"done"`
	T       int    `json:"t"`
	Evicted bool   `json:"evicted"`
	Error   string `json:"error"`
}

func runDecode(client *http.Client, p *pool, dim, maxTokens int, mode string, width int,
	seed int64, rate float64, workers int, duration time.Duration) {
	var (
		mu      sync.Mutex
		results []decodeResult
	)
	record := func(r decodeResult) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	if rate > 0 {
		// Open loop: sessions arrive at the configured rate no matter
		// how long earlier sessions stream for.
		interval := time.Duration(float64(time.Second) / rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		sem := make(chan struct{}, 4096)
		rng := rand.New(rand.NewSource(seed))
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for now := range ticker.C {
			if !now.Before(deadline) {
				break
			}
			body := decodePayload(rng, dim, mode, width, maxTokens)
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					record(issueDecode(client, p, body))
					<-sem
				}()
			default:
				record(decodeResult{code: 0}) // shed at the generator
			}
		}
	} else {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(id)))
				for time.Now().Before(deadline) {
					record(issueDecode(client, p, decodePayload(rng, dim, mode, width, maxTokens)))
				}
			}(w)
		}
	}
	wg.Wait()
	summarizeDecode(results, duration)
}

func decodePayload(rng *rand.Rand, dim int, mode string, width, maxTokens int) []byte {
	h := make([]float32, dim)
	for i := range h {
		h[i] = float32(rng.NormFloat64())
	}
	v := map[string]interface{}{"h0": h, "stream": "ndjson"}
	if mode != "" {
		v["mode"] = mode
	}
	if width > 0 {
		v["width"] = width
	}
	if maxTokens > 0 {
		v["max_tokens"] = maxTokens
	}
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return buf
}

// issueDecode opens one session and consumes its stream to the end,
// timestamping every frame.
func issueDecode(client *http.Client, p *pool, body []byte) decodeResult {
	target, url := p.pick()
	start := time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return decodeResult{code: 0, latency: time.Since(start), done: time.Now(), target: target, bytesOut: int64(len(body))}
	}
	defer resp.Body.Close()
	r := decodeResult{
		code: resp.StatusCode, target: target,
		retryAfter: resp.Header.Get("Retry-After"),
		bytesOut:   int64(len(body)),
	}
	counted := &countReader{r: resp.Body}
	if resp.StatusCode == http.StatusOK {
		sawDone := false
		last := start
		sc := bufio.NewScanner(counted)
		for sc.Scan() {
			line := sc.Bytes()
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			now := time.Now()
			var f decodeFrame
			if err := json.Unmarshal(line, &f); err != nil {
				break // garbage mid-stream counts as a drop
			}
			if f.Done {
				sawDone = true
				r.evicted = f.Evicted
				break
			}
			if r.tokens == 0 {
				r.ttft = now.Sub(start)
			} else {
				r.gaps = append(r.gaps, now.Sub(last))
			}
			last = now
			r.tokens++
		}
		// A 200 whose stream ends (EOF, read error, bad frame) before
		// the terminal done frame was cut mid-flight.
		r.dropped = !sawDone
	}
	_, _ = io.Copy(io.Discard, counted)
	r.bytesIn = counted.n
	r.latency = time.Since(start)
	r.done = time.Now()
	return r
}

func summarizeDecode(results []decodeResult, d time.Duration) {
	var ok, dropped, evicted, tokens int
	var bytesOut, bytesIn int64
	var ttfts, gaps, sessLats []time.Duration
	tokMin, tokMax := 0, 0
	errByStatus := map[int]int{}
	for _, r := range results {
		bytesOut += r.bytesOut
		bytesIn += r.bytesIn
		if r.code != http.StatusOK {
			errByStatus[r.code]++
			continue
		}
		if r.dropped {
			dropped++
			continue
		}
		ok++
		tokens += r.tokens
		if r.evicted {
			evicted++
		}
		if r.tokens > 0 {
			ttfts = append(ttfts, r.ttft)
			if ok == 1 || r.tokens < tokMin {
				tokMin = r.tokens
			}
			if r.tokens > tokMax {
				tokMax = r.tokens
			}
		}
		gaps = append(gaps, r.gaps...)
		sessLats = append(sessLats, r.latency)
	}
	sortDur := func(s []time.Duration) {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	sortDur(ttfts)
	sortDur(gaps)
	sortDur(sessLats)

	fmt.Printf("decode sessions: %d over %s\n", len(results), d)
	fmt.Printf("  ok: %d (%d tokens, %.1f tok/s)  dropped: %d  evicted: %d\n",
		ok, tokens, float64(tokens)/d.Seconds(), dropped, evicted)
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
	if len(ttfts) > 0 {
		fmt.Printf("  ttft p50 %s  p90 %s  p99 %s  max %s\n",
			quantile(ttfts, 0.50), quantile(ttfts, 0.90), quantile(ttfts, 0.99), ttfts[len(ttfts)-1])
	}
	if len(gaps) > 0 {
		fmt.Printf("  inter-token gap p50 %s  p99 %s  max %s\n",
			quantile(gaps, 0.50), quantile(gaps, 0.99), gaps[len(gaps)-1])
	}
	if ok > 0 {
		fmt.Printf("  tokens/session mean %.1f  min %d  max %d\n",
			float64(tokens)/float64(ok), tokMin, tokMax)
	}
	if len(sessLats) > 0 {
		fmt.Printf("  session p50 %s  p99 %s  max %s\n",
			quantile(sessLats, 0.50), quantile(sessLats, 0.99), sessLats[len(sessLats)-1])
	}
	if n := len(results); n > 0 {
		fmt.Printf("  wire: %.0f B/req out  %.0f B/req in  %.2f MB/s\n",
			float64(bytesOut)/float64(n), float64(bytesIn)/float64(n), mbPerSec(bytesOut+bytesIn, d))
	}

	if ok == 0 {
		fmt.Fprintln(os.Stderr, "no successful decode sessions")
		os.Exit(1)
	}
}
