package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"enmc/internal/core"
	"enmc/internal/distributed"
	"enmc/internal/projection"
	"enmc/internal/quant"
	"enmc/internal/tensor"
	"enmc/internal/xrand"
)

// shape is one model geometry: l classes, hidden d, screener width k
// at INT4, exact budget m (≈ 2 % of l), and the latent rank of the
// synthetic weights.
type shape struct {
	name             string
	l, d, k, m, rank int
}

// The two evaluated shapes are rows of the paper's Table 2. xc670k's
// classifier (1.37 GB) is far beyond the last-level cache, the
// paper's bandwidth-bound regime; nmt32k's screener (≈ 4 MB) is
// cache-resident, so fixed per-request costs are a large share. tiny
// exists for the self-test only.
var shapes = map[string]shape{
	"xc670k": {name: "xc670k", l: 670091, d: 512, k: 128, m: 13401, rank: 16},
	"nmt32k": {name: "nmt32k", l: 32317, d: 1024, k: 256, m: 646, rank: 48},
	"tiny":   {name: "tiny", l: 2048, d: 64, k: 16, m: 40, rank: 8},
}

// modelSeed fixes the weights: --seed moves the request vectors and
// the arrival schedule, never the model, so quality metrics repeat
// exactly across seeds.
const modelSeed = 0x454e4d43

// rowBlock is the unit of parallel generation. Every block draws from
// its own generator, so the weights do not depend on GOMAXPROCS.
const rowBlock = 512

// model is a generated classifier with its screener(s). shards tile
// the class space row-wise; a single-node model has one shard.
type model struct {
	shape  shape
	cls    *core.Classifier
	basis  *tensor.Matrix // rank×d latent basis B; request noise lives in its row space
	shards []distributed.Shard
	// popular is the fixed popularity order request targets are drawn
	// from (Zipf over its head), a property of the data set.
	popular []int
}

// buildModel generates W = A·B + E row by row (tensor.MatMul takes
// ≈ 30 s at 670k rows) together with the closed-form screener
// W̃ = (k/d)·A·(B·Pᵀ), b̃ = b: the least-squares projection of the
// latent part of W. The noise E (0.25 % of a row's energy) is left
// out of the projection because pushing 670 091 full rows through
// P costs 15 G additions; no SGD runs in set-up either way.
func buildModel(sh shape, nShards int) (*model, error) {
	rng := xrand.New(modelSeed)
	l, d, k, rank := sh.l, sh.d, sh.k, sh.rank

	basis := tensor.NewMatrix(rank, d)
	inv := float32(1 / math.Sqrt(float64(rank)))
	for i := range basis.Data {
		basis.Data[i] = rng.NormFloat32() * inv
	}
	const projSeed = modelSeed ^ 0x5eed
	p := projection.New(k, d, projSeed)
	projBasis := tensor.NewMatrix(rank, k) // B·Pᵀ scaled by k/d
	for b := 0; b < rank; b++ {
		p.Apply(projBasis.Row(b), basis.Row(b))
		tensor.Scale(projBasis.Row(b), float32(k)/float32(d))
	}

	// Column-major copies, so a generated row is d (and k) short dot
	// products with a: ten times faster than rank Axpy passes.
	basisT, projBasisT := basis.T(), projBasis.T()
	w := tensor.NewMatrix(l, d)
	wt := make([]float32, l*k)
	bias := make([]float32, l)
	blocks := (l + rowBlock - 1) / rowBlock
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := make([]float32, rank)
			for {
				blk := int(next.Add(1)) - 1
				if blk >= blocks {
					return
				}
				r := xrand.New(modelSeed + uint64(blk)*0x9e3779b97f4a7c15)
				hi := min((blk+1)*rowBlock, l)
				for i := blk * rowBlock; i < hi; i++ {
					row, trow := w.Row(i), wt[i*k:(i+1)*k]
					for b := range a {
						a[b] = r.NormFloat32()
					}
					for j := range row {
						row[j] = tensor.Dot(a, basisT.Row(j)) + 0.05*cheapNormal(r)
					}
					for j := range trow {
						trow[j] = tensor.Dot(a, projBasisT.Row(j))
					}
					bias[i] = 0.1 * r.NormFloat32()
				}
			}
		}()
	}
	wg.Wait()

	cls, err := core.NewClassifier(w, bias)
	if err != nil {
		return nil, err
	}
	m := &model{shape: sh, cls: cls, basis: basis, popular: rng.Perm(l)}
	n := distributed.ShardCount(l, nShards)
	m.shards = make([]distributed.Shard, n)
	for i := range m.shards {
		off, end, err := distributed.ShardRange(l, nShards, i)
		if err != nil {
			return nil, err
		}
		sub, err := core.NewClassifier(&tensor.Matrix{Rows: end - off, Cols: d, Data: w.Data[off*d : end*d]}, bias[off:end])
		if err != nil {
			return nil, err
		}
		scr := &core.Screener{
			Cfg: core.Config{Categories: end - off, Hidden: d, Reduced: k, Precision: quant.INT4, Seed: projSeed},
			P:   p,
			Wt:  &tensor.Matrix{Rows: end - off, Cols: k, Data: wt[off*k : end*k]},
			Bt:  bias[off:end],
		}
		if err := scr.Cfg.Validate(); err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			scr.Freeze()
		}()
		m.shards[i] = distributed.Shard{Offset: off, Classifier: sub, Screener: scr, Version: "bench"}
	}
	wg.Wait()
	return m, nil
}

// screener returns the single-node screener; it panics on a sharded
// model, which is a bug in the caller.
func (m *model) screener() *core.Screener {
	if len(m.shards) != 1 {
		panic(fmt.Sprintf("bench: screener() on a %d-shard model", len(m.shards)))
	}
	return m.shards[0].Screener
}

// cheapNormal is a unit-variance bell-shaped variate from one
// generator step (Irwin–Hall, n = 4): the 343 M noise terms of xc670k
// would cost seconds through the polar method.
func cheapNormal(r *xrand.RNG) float32 {
	u := r.Uint64()
	s := (u & 0xffff) + (u >> 16 & 0xffff) + (u >> 32 & 0xffff) + (u >> 48)
	return (float32(s)/65536 - 2) * 1.7320508
}

// requestVectors draws n hidden vectors the way workload.Generate
// does: peaked toward a Zipf-sampled target class, with most of the
// noise inside the latent row space and a small isotropic residue.
func (m *model) requestVectors(r *xrand.RNG, n int) [][]float32 {
	const (
		peakGain = 3.3
		noiseStd = 0.33
		headN    = 4096
		zipfS    = 1.1
	)
	head := min(headN, len(m.popular))
	cdf := make([]float64, head)
	var acc float64
	for i := range cdf {
		acc += 1 / math.Pow(float64(i+2), zipfS)
		cdf[i] = acc
	}
	out := make([][]float32, n)
	for i := range out {
		c := r.Intn(m.shape.l) // the long tail: 10 % uniform
		if r.Float64() >= 0.1 {
			u := r.Float64() * acc
			lo, hi := 0, head-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cdf[mid] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			c = m.popular[lo]
		}
		row := m.cls.W.Row(c)
		norm := float32(tensor.Norm2(row))
		if norm == 0 {
			norm = 1
		}
		h := make([]float32, m.shape.d)
		for j := range h {
			h[j] = peakGain*row[j]/norm + 0.2*noiseStd*r.NormFloat32()
		}
		for b := 0; b < m.basis.Rows; b++ {
			tensor.Axpy(h, 0.9*noiseStd*r.NormFloat32(), m.basis.Row(b))
		}
		out[i] = h
	}
	return out
}
