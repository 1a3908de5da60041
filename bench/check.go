package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"

	"enmc/internal/core"
	"enmc/internal/decode"
	"enmc/internal/distributed"
	"enmc/internal/server"
	"enmc/internal/tenant"
	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

// sampleEvery is the correctness gate's sampling: one served answer
// in sixteen is recomputed in the harness and compared bit for bit.
// Every answer still gets the structural check.
const sampleEvery = 16

// sampled says whether request req of a run with this seed is in the
// bit-for-bit sample (a SplitMix64 step keyed by both).
func sampled(seed uint64, req int32) bool {
	z := seed + uint64(req)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)%sampleEvery == 0
}

// verifier recomputes served answers: core.ClassifyApprox on a single
// node, distributed.Classify over the same shards on the cluster, and
// a ClassifyApproxInto + Decoder.StepInto greedy loop for decode.
type verifier struct {
	sp   spec
	m    *model
	st   *stack
	in   *inputs
	seed uint64
}

func sameCandidates(got []server.Candidate, classes []int, logits func(j int) float32) bool {
	if len(got) != len(classes) {
		return false
	}
	for j, c := range got {
		if c.Class != classes[j] || math.Float32bits(c.Logit) != math.Float32bits(logits(j)) {
			return false
		}
	}
	return true
}

// classified checks one served classification of h under budget m.
func (v *verifier) classified(h []float32, class int, got []server.Candidate, m int) bool {
	if v.sp.clustered() {
		per := (m + len(v.m.shards) - 1) / len(v.m.shards)
		want, err := distributed.Classify(v.m.shards, h, per, topK)
		if err != nil || len(want) == 0 || want[0].Class != class {
			return false
		}
		classes := make([]int, len(want))
		for j, c := range want {
			classes[j] = c.Class
		}
		return sameCandidates(got, classes, func(j int) float32 { return want[j].Logit })
	}
	res := core.ClassifyApprox(v.m.cls, v.m.screener(), h, core.TopM(m))
	idx := tensor.TopK(res.Mixed, topK)
	return class == res.Predict() && sameCandidates(got, idx, func(j int) float32 { return res.Mixed[idx[j]] })
}

// approxGreedy is the decode reference: the token stream the served
// session must reproduce.
func (v *verifier) approxGreedy(h0 []float32) []int {
	sc := core.GetScratch()
	defer sc.Release()
	return v.st.decoder.Decode(h0, decodeTokens, func(h []float32) int {
		return core.ClassifyApproxInto(v.m.cls, v.m.screener(), h, core.TopM(v.m.shape.m), sc).Predict()
	})
}

func sameTokens(frames []frame, want []int) bool {
	if len(frames) != len(want) {
		return false
	}
	for i, f := range frames {
		if f.token != want[i] {
			return false
		}
	}
	return true
}

// okItems returns how many of the reply's answers count as correct:
// all of them when the reply is well-formed and, if it is in the
// sample, bit-identical to the reference; otherwise none.
func (v *verifier) okItems(r *reply) int {
	if !r.answered() {
		return 0
	}
	check := sampled(v.seed, r.req)
	vecs := v.in.vectors
	switch v.sp.kind {
	case closedBatch:
		if len(r.batch.Results) != r.items {
			return 0
		}
		for i, item := range r.batch.Results {
			if len(item.TopK) != topK || item.TopK[0].Class != item.Class {
				return 0
			}
			// One item of a sampled batch: a full recompute of sixteen
			// xc670k items would cost as much as the request did.
			if check && i == int(r.req)%r.items && !v.classified(vecs[r.slot*batchItems+i], item.Class, item.TopK, r.batch.M) {
				return 0
			}
		}
	case closedDecode:
		if len(r.frames) != r.items || r.final == nil || len(r.final.Tokens) != r.items {
			return 0
		}
		if !sameTokens(r.frames, r.final.Tokens) || (check && !sameTokens(r.frames, v.approxGreedy(vecs[r.slot]))) {
			return 0
		}
	default:
		s := r.single
		if len(s.TopK) != topK || s.TopK[0].Class != s.Class || s.Partial {
			return 0
		}
		if check && !v.classified(vecs[r.slot], s.Class, s.TopK, s.M) {
			return 0
		}
	}
	return r.items
}

// probeCount sizes the fixed quality probe set so that its full-
// classifier reference costs about two seconds on two cores: the
// reference is l·d MACs per probe, 343 M of them at xc670k.
func probeCount(sh shape) int {
	return max(8, min(128, int(6e9/(float64(sh.l)*float64(sh.d)))/8*8))
}

// quality is served top-5 and top-1 against the full classifier.
type quality struct{ recallAt5, top1 float64 }

// exactTopK ranks every probe under the full classifier in one
// weight-stationary pass: each row of W is read once for all probes.
func exactTopK(cls *core.Classifier, probes [][]float32) [][]int {
	l := cls.Categories()
	z := make([][]float32, len(probes))
	for p := range z {
		z[p] = make([]float32, l)
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g * l / workers; i < (g+1)*l/workers; i++ {
				row := cls.W.Row(i)
				for p, h := range probes {
					z[p][i] = tensor.Dot(row, h) + cls.B[i]
				}
			}
		}()
	}
	wg.Wait()
	out := make([][]int, len(probes))
	for p := range out {
		out[p] = tensor.TopK(z[p], topK)
	}
	return out
}

func overlap(a, b []int) int {
	n := 0
	for _, x := range a {
		for _, y := range b {
			if x == y {
				n++
				break
			}
		}
	}
	return n
}

// post sends one JSON body to the stack outside any window and
// returns the 200 answer's body.
func post(st *stack, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, st.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if st.apiKey != "" {
		req.Header.Set(tenant.HeaderAPIKey, st.apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// postJSON is post with the answer decoded into `into`.
func postJSON(st *stack, path string, body []byte, into any) error {
	data, err := post(st, path, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, into)
}

// measureQuality serves a fixed probe set (it depends on the model
// seed only, so the values repeat exactly across run seeds) and
// scores the answers against the full classifier.
func measureQuality(sp spec, m *model, st *stack) (quality, error) {
	probes := m.requestVectors(xrand.New(modelSeed^0x9b0be), probeCount(m.shape))
	if sp.kind == closedDecode {
		return decodeQuality(m, st, probes[:4])
	}
	exact := exactTopK(m.cls, probes)
	served := make([][]int, 0, len(probes))
	take := func(cands []server.Candidate) {
		ids := make([]int, len(cands))
		for j, c := range cands {
			ids[j] = c.Class
		}
		served = append(served, ids)
	}
	if sp.kind == closedBatch {
		for i := 0; i < len(probes); i += batchItems {
			body, _ := json.Marshal(server.ClassifyBatchRequest{Batch: probes[i:min(i+batchItems, len(probes))], TopK: topK})
			var resp server.ClassifyBatchResponse
			if err := postJSON(st, "/v1/classify_batch", body, &resp); err != nil {
				return quality{}, err
			}
			for _, item := range resp.Results {
				take(item.TopK)
			}
		}
	} else {
		for _, h := range probes {
			body, _ := json.Marshal(server.ClassifyRequest{H: h, TopK: topK})
			var resp server.ClassifyResponse
			if err := postJSON(st, "/v1/classify", body, &resp); err != nil {
				return quality{}, err
			}
			take(resp.TopK)
		}
	}
	if len(served) != len(probes) {
		return quality{}, fmt.Errorf("quality probe: %d answers for %d probes", len(served), len(probes))
	}
	var q quality
	for p, ids := range served {
		q.recallAt5 += float64(overlap(ids, exact[p])) / topK
		if len(ids) > 0 && ids[0] == exact[p][0] {
			q.top1++
		}
	}
	q.recallAt5 /= float64(len(probes))
	q.top1 /= float64(len(probes))
	return q, nil
}

// decodeQuality decodes a few sessions greedily under the full
// classifier. top1 is the served streams' token match rate against
// those references (free-running: one early miss costs the rest of
// the sentence); recallAt5 scores the screened top-5 at the
// reference's own states, so every step is judged.
func decodeQuality(m *model, st *stack, starts [][]float32) (quality, error) {
	type ref struct {
		tokens []int
		states [][]float32
		top5   [][]int
	}
	refs := make([]ref, len(starts))
	var wg sync.WaitGroup
	for i, h0 := range starts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &refs[i]
			r.tokens, r.states = st.decoder.DecodeWithStates(h0, decodeTokens, func(h []float32) int {
				idx := tensor.TopK(m.cls.Logits(h), topK)
				r.top5 = append(r.top5, idx)
				return idx[0]
			})
		}()
	}
	wg.Wait()

	var q quality
	steps := 0
	for i, h0 := range starts {
		body, _ := json.Marshal(server.DecodeRequest{H0: h0, Mode: "greedy", Stream: "ndjson", MaxTokens: decodeTokens})
		served, err := decodeOnce(st, body)
		if err != nil {
			return quality{}, err
		}
		scorer := decode.NewLocalScorer(m.cls, m.screener(), decode.LocalScorerConfig{})
		for t, h := range refs[i].states {
			if t < len(served) && served[t] == refs[i].tokens[t] {
				q.top1++
			}
			sc, err := scorer.ScoreStep(context.Background(), h, m.shape.m, topK)
			if err != nil {
				return quality{}, err
			}
			q.recallAt5 += float64(overlap(sc.Classes, refs[i].top5[t])) / topK
			steps++
		}
		scorer.Close()
	}
	q.recallAt5 /= float64(steps)
	q.top1 /= float64(steps)
	return q, nil
}

// decodeOnce runs one session outside any window and returns its
// tokens from the done frame.
func decodeOnce(st *stack, body []byte) ([]int, error) {
	data, err := post(st, "/v1/decode", body)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var done server.DecodeDone
	if err := json.Unmarshal(lines[len(lines)-1], &done); err != nil {
		return nil, err
	}
	if !done.Done || done.Error != "" {
		return nil, fmt.Errorf("/v1/decode: no clean done frame: %s", done.Error)
	}
	return done.Tokens, nil
}
