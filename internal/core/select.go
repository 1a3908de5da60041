package core

import (
	"fmt"
	"sort"

	"enmc/internal/tensor"
)

// SelectionMethod distinguishes the two candidate-estimation
// strategies the paper supports (Section 4.2): top-m search and
// threshold filtering (the hardware comparator array).
type SelectionMethod int

// Candidate selection strategies.
const (
	SelectTopM SelectionMethod = iota
	SelectThreshold
)

func (m SelectionMethod) String() string {
	switch m {
	case SelectTopM:
		return "top-m"
	case SelectThreshold:
		return "threshold"
	default:
		return fmt.Sprintf("SelectionMethod(%d)", int(m))
	}
}

// Selection configures candidate selection over approximate logits.
type Selection struct {
	Method    SelectionMethod
	M         int     // for SelectTopM: number of candidates
	Threshold float32 // for SelectThreshold: keep z̃ᵢ ≥ Threshold
}

// TopM returns a top-m selection.
func TopM(m int) Selection { return Selection{Method: SelectTopM, M: m} }

// Threshold returns a threshold selection.
func Threshold(t float32) Selection {
	return Selection{Method: SelectThreshold, Threshold: t}
}

// SelectCandidates picks the candidate indices from approximate
// logits according to the selection policy, in ascending index order.
func SelectCandidates(ztilde []float32, sel Selection) []int {
	sc := GetScratch()
	defer sc.Release()
	return append([]int(nil), SelectCandidatesInto(ztilde, sel, sc)...)
}

// SelectCandidatesInto is SelectCandidates with scratch-backed
// storage: the returned slice aliases sc and is overwritten by the
// next selection through it. Both policies return a set in ascending
// index order — the order the exact recompute gathers classifier rows
// in; top-m is the set tensor.TopK would rank (ties toward lower
// index), found by a sample-bracketed linear radix select instead of a
// heap and a sort. A bracket that fell back to the full select bumps
// core.classify.select_bracket_miss.
func SelectCandidatesInto(ztilde []float32, sel Selection, sc *Scratch) []int {
	switch sel.Method {
	case SelectTopM:
		cands := tensor.TopKSetInto(ztilde, sel.M, &sc.sel)
		if sc.sel.Missed {
			mSelectBracketMiss.Inc()
		}
		sc.maybeNaN = sc.sel.MaybeNaN
		return cands
	case SelectThreshold:
		sc.cands, sc.maybeNaN = tensor.AboveThresholdInto(sc.cands, ztilde, sel.Threshold)
		return sc.cands
	default:
		panic(fmt.Sprintf("core: unknown selection method %d", sel.Method))
	}
}

// CalibrateThreshold tunes a threshold on validation features so the
// expected candidate count is targetM per inference — the paper's
// "threshold value can be tuned on validation sets". It pools all
// validation approximate logits and returns the value whose global
// exceedance rate matches targetM/l.
func CalibrateThreshold(scr *Screener, validation [][]float32, targetM int) float32 {
	if len(validation) == 0 {
		panic("core: CalibrateThreshold with no validation samples")
	}
	if targetM <= 0 {
		targetM = 1
	}
	pooled := make([]float32, 0, len(validation)*scr.Cfg.Categories)
	for _, h := range validation {
		pooled = append(pooled, scr.Screen(h)...)
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i] > pooled[j] })
	rank := targetM * len(validation)
	if rank >= len(pooled) {
		rank = len(pooled) - 1
	}
	return pooled[rank]
}
