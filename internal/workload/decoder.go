package workload

import (
	"math"

	"enmc/internal/core"
	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

// Decoder is a synthetic autoregressive dynamics used by the
// translation-quality experiment (Fig. 11(a)). Real NMT measures BLEU
// degradation caused by the approximate classifier picking a
// different word during greedy decoding, which then perturbs every
// later step; this decoder reproduces exactly that feedback loop:
//
//	h_{t+1} = tanh(g_r·R·h_t + g_e·emb(y_t) + drift_t)
//
// where R is a fixed random orthonormal-ish transition, emb(y) is the
// (normalized) classifier weight row of the emitted token, and drift
// is a deterministic per-step excitation shared by all decodes of the
// same sentence. Decoding the same sentence with the exact and the
// approximate classifier and comparing the token streams with BLEU
// measures the same quantity the paper plots.
type Decoder struct {
	cls    *core.Classifier
	hidden int
	r      *tensor.Matrix // d×d transition
	drift  []float32      // deterministic excitation stream, len d*maxLen
	gainR  float32
	gainE  float32
}

// NewDecoder derives a decoder from the instance, deterministically
// from seed. maxLen bounds the drift stream (and thus sentence
// length).
func NewDecoder(inst *Instance, seed uint64, maxLen int) *Decoder {
	return NewDecoderFor(inst.Classifier, seed, maxLen)
}

// NewDecoderFor derives the decoder directly from a classifier — the
// serving path's constructor, where no Instance exists (the model is
// read from a classifier file). Identical (seed, classifier) pairs
// yield bit-identical dynamics, so a cluster front-end that reads the
// classifier its shard workers sliced drives the same decoder a
// single node would.
func NewDecoderFor(cls *core.Classifier, seed uint64, maxLen int) *Decoder {
	d := cls.Hidden()
	rng := xrand.New(seed ^ 0xdec0de)
	r := tensor.NewMatrix(d, d)
	inv := float32(1 / math.Sqrt(float64(d)))
	for i := range r.Data {
		r.Data[i] = rng.NormFloat32() * inv
	}
	drift := make([]float32, d*maxLen)
	for i := range drift {
		drift[i] = 0.4 * rng.NormFloat32()
	}
	return &Decoder{cls: cls, hidden: d, r: r, drift: drift, gainR: 0.8, gainE: 1.6}
}

// MaxLen returns the longest decodable sequence.
func (dec *Decoder) MaxLen() int { return len(dec.drift) / dec.hidden }

// Hidden returns the decoder's state dimension d.
func (dec *Decoder) Hidden() int { return dec.hidden }

// Step advances the hidden state given the previously emitted token.
func (dec *Decoder) Step(h []float32, y, t int) []float32 {
	next := make([]float32, dec.hidden)
	dec.StepInto(next, h, y, t)
	return next
}

// StepInto is Step writing into a caller-provided destination of
// length d — the allocation-free transition the decode service loops
// on. dst must not alias h.
func (dec *Decoder) StepInto(dst, h []float32, y, t int) {
	d := dec.hidden
	dec.r.MatVec(dst, h)
	row := dec.cls.W.Row(y)
	norm := float32(tensor.Norm2(row))
	if norm == 0 {
		norm = 1
	}
	dt := dec.drift[t*d : (t+1)*d]
	for j := range dst {
		v := dec.gainR*dst[j] + dec.gainE*row[j]/norm + dt[j]
		dst[j] = float32(math.Tanh(float64(v)))
	}
}

// NormalizeStartInto writes h0 scaled into tanh's linear range (norm
// 2) into dst — the shared start-state convention of every decode
// entry point.
func (dec *Decoder) NormalizeStartInto(dst, h0 []float32) {
	copy(dst, h0)
	n := float32(tensor.Norm2(dst))
	if n > 0 {
		tensor.Scale(dst, 2/n)
	}
}

// Decode greedily emits length tokens starting from h0, choosing each
// token with classify (which returns the argmax class for a hidden
// state). Different classify functions (exact vs screening vs
// baselines) decode the same trajectory family and can be compared
// token-by-token.
func (dec *Decoder) Decode(h0 []float32, length int, classify func(h []float32) int) []int {
	tokens, _ := dec.DecodeWithStates(h0, length, classify)
	return tokens
}

// DecodeWithStates is Decode but also returns the hidden state fed to
// the classifier at every step. Screener training uses these states
// so the screener sees the decoder's state distribution — exactly as
// the paper trains on the task's own hidden representations. The
// returned slices are caller-owned.
func (dec *Decoder) DecodeWithStates(h0 []float32, length int, classify func(h []float32) int) ([]int, [][]float32) {
	if length > dec.MaxLen() {
		length = dec.MaxLen()
	}
	h := make([]float32, len(h0))
	dec.NormalizeStartInto(h, h0)
	out := make([]int, 0, length)
	states := make([][]float32, 0, length)
	for t := 0; t < length; t++ {
		states = append(states, h)
		y := classify(h)
		out = append(out, y)
		h = dec.Step(h, y, t)
	}
	return out, states
}
