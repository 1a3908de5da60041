package enmc_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"enmc"
)

// buildToyModel constructs a deterministic 64-class toy classifier
// whose rows live in a 4-dimensional latent space, plus one query
// vector peaked toward class 7. Real uses train on a front-end's
// hidden states; the shapes of the calls are identical.
func buildToyModel() (*enmc.Classifier, [][]float32, []float32) {
	const l, d, rank = 64, 16, 4
	// Tiny deterministic LCG so the example output is stable.
	state := uint64(12345)
	next := func() float32 {
		state = state*6364136223846793005 + 1442695040888963407
		return float32(int32(state>>33))/float32(1<<31)*2 - 1
	}
	basis := make([][]float32, rank)
	for i := range basis {
		basis[i] = make([]float32, d)
		for j := range basis[i] {
			basis[i][j] = next() / float32(math.Sqrt(rank))
		}
	}
	weights := make([][]float32, l)
	for c := range weights {
		weights[c] = make([]float32, d)
		for r := 0; r < rank; r++ {
			coef := next()
			for j := 0; j < d; j++ {
				weights[c][j] += coef * basis[r][j]
			}
		}
	}
	var samples [][]float32
	for n := 0; n < 96; n++ {
		c := n % l
		h := make([]float32, d)
		var norm float64
		for _, v := range weights[c] {
			norm += float64(v) * float64(v)
		}
		scale := 3.3 / float32(math.Sqrt(norm))
		for j := range h {
			h[j] = scale * weights[c][j]
		}
		for r := 0; r < rank; r++ {
			coef := 0.3 * next()
			for j := range h {
				h[j] += coef * basis[r][j]
			}
		}
		samples = append(samples, h)
	}
	cls, _ := enmc.NewClassifier(weights, make([]float32, l))
	return cls, samples, samples[7] // sample 7 is peaked toward class 7
}

// Example demonstrates the whole screening pipeline: train a
// screener, classify with a small candidate budget, and compare
// against the exact layer.
func Example() {
	cls, samples, query := buildToyModel()

	scr, err := enmc.TrainScreener(cls, samples, enmc.ScreenerConfig{Seed: 1, Epochs: 8})
	if err != nil {
		panic(err)
	}
	res := enmc.Classify(cls, scr, query, enmc.TopM(4))
	fmt.Println("screened prediction:", res.Predict())
	fmt.Println("exact prediction:   ", cls.Predict(query))
	fmt.Println("candidates recomputed exactly:", len(res.Candidates), "of", cls.Categories())
	// Output:
	// screened prediction: 7
	// exact prediction:    7
	// candidates recomputed exactly: 4 of 64
}

// ExampleCalibrateThreshold selects candidates the way the DIMM's
// comparator array does — every class whose screened logit clears a
// threshold — with the threshold calibrated offline so that
// validation queries keep about eight classes.
func ExampleCalibrateThreshold() {
	cls, samples, query := buildToyModel()
	scr, err := enmc.TrainScreener(cls, samples, enmc.ScreenerConfig{Seed: 1, Epochs: 8})
	if err != nil {
		panic(err)
	}
	th := enmc.CalibrateThreshold(scr, samples[32:64], 8)
	res := enmc.Classify(cls, scr, query, enmc.Threshold(th))
	fmt.Println("screened prediction:", res.Predict())
	fmt.Println("screened top-3:     ", res.TopK(3))
	fmt.Println("candidates above the threshold:", len(res.Candidates), "of", cls.Categories())
	// Output:
	// screened prediction: 7
	// screened top-3:      [7 1 36]
	// candidates above the threshold: 13 of 64
}

// ExampleSaveScreener ships a trained screener from the training host
// to the inference host (the paper's Fig. 10 initialization): the
// restored copy classifies exactly as the original does.
func ExampleSaveScreener() {
	cls, samples, query := buildToyModel()
	scr, err := enmc.TrainScreener(cls, samples, enmc.ScreenerConfig{Seed: 1, Epochs: 8})
	if err != nil {
		panic(err)
	}
	var wire bytes.Buffer
	if err := enmc.SaveScreener(scr, &wire); err != nil {
		panic(err)
	}
	fmt.Println("serialized screener:", wire.Len(), "bytes")
	restored, err := enmc.LoadScreener(&wire)
	if err != nil {
		panic(err)
	}
	before := enmc.Classify(cls, scr, query, enmc.TopM(4))
	after := enmc.Classify(cls, restored, query, enmc.TopM(4))
	fmt.Println("prediction before saving, after loading:", before.Predict(), after.Predict())
	fmt.Println("same candidates:", slices.Equal(before.Candidates, after.Candidates))
	// Output:
	// serialized screener: 2605 bytes
	// prediction before saving, after loading: 7 7
	// same candidates: true
}

// ExampleSimulate runs the cycle-level system simulation for a
// Transformer-scale classification offload on the ENMC design and on
// the TensorDIMM baseline.
func ExampleSimulate() {
	task := enmc.SimTask{Categories: 267744, Hidden: 512, Batch: 1}
	en, err := enmc.Simulate("enmc", task)
	if err != nil {
		panic(err)
	}
	td, err := enmc.Simulate("tensordimm", task)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ENMC faster than TensorDIMM: %v\n", en.Seconds < td.Seconds)
	fmt.Printf("ENMC cheaper in energy:      %v\n", en.TotalJoules() < td.TotalJoules())
	// Output:
	// ENMC faster than TensorDIMM: true
	// ENMC cheaper in energy:      true
}

// ExampleAssembleProgram assembles a minimal ENMC program (Table 1
// mnemonics), prints its disassembly, and executes it on one
// simulated rank.
func ExampleAssembleProgram() {
	prog, err := enmc.AssembleProgram(`
LDR wgt_i4, 0x0
MUL_ADD_INT4 feat_i4, wgt_i4
FILTER psum_i4
RETURN
`)
	if err != nil {
		panic(err)
	}
	fmt.Print(prog.Disassemble())
	again, err := enmc.AssembleProgram(prog.Disassemble())
	if err != nil {
		panic(err)
	}
	fmt.Println("reassembled:", again.Len(), "instructions, same text:", again.Disassemble() == prog.Disassemble())
	res, err := prog.RunOnDIMM()
	if err != nil {
		panic(err)
	}
	fmt.Println("instructions:", res.Instructions)
	fmt.Println("INT4 MACs:   ", res.INT4MACs)
	// Output:
	// LDR wgt_i4, 0x0
	// MUL_ADD_INT4 feat_i4, wgt_i4
	// FILTER psum_i4
	// RETURN
	// reassembled: 4 instructions, same text: true
	// instructions: 4
	// INT4 MACs:    512
}
