package workload_test

import (
	"context"
	"testing"

	"enmc/internal/activation"
	"enmc/internal/core"
	"enmc/internal/decode"
	"enmc/internal/tensor"
	"enmc/internal/workload"
)

// exactStep scores a decode step on the full classifier's logits: the
// top-k classes and their log-probabilities under its softmax.
type exactStep struct {
	cls *core.Classifier
	buf tensor.TopKBuf
}

func (s *exactStep) ScoreStep(_ context.Context, h []float32, m, k int) (decode.StepScore, error) {
	z := s.cls.Logits(h)
	lse := activation.LogSumExp(z)
	sc := decode.StepScore{Classes: tensor.TopKInto(z, k, &s.buf), M: m}
	for _, c := range sc.Classes {
		sc.LogProbs = append(sc.LogProbs, float64(z[c])-lse)
	}
	return sc, nil
}

func (s *exactStep) Close() {}

// TestBeamWidthOneEqualsGreedy: the served beam search at width 1,
// on the exact scorer, emits the sequence the offline greedy decoder
// (Decoder.Decode, which the BLEU experiments run) gives with the
// full classifier's argmax.
func TestBeamWidthOneEqualsGreedy(t *testing.T) {
	spec := workload.Spec{Name: "beam", Categories: 200, Hidden: 32, LatentRank: 12, ZipfS: 1}
	inst := workload.Generate(spec, workload.GenOptions{Seed: 8, Train: 8, Valid: 4, Test: 6})
	dec := workload.NewDecoder(inst, 3, 12)
	svc := decode.NewService(decode.Config{}, dec, func() decode.Scorer {
		return &exactStep{cls: inst.Classifier}
	})
	defer svc.Shutdown()
	for i, h0 := range inst.Test {
		greedy := dec.Decode(h0, dec.MaxLen(), inst.Classifier.Predict)
		sess, err := svc.Open(decode.Beam, 1, h0)
		if err != nil {
			t.Fatal(err)
		}
		if fin, err := sess.Run(context.Background(), dec.MaxLen(), func(decode.Token) error { return nil }); err != nil || !fin {
			t.Fatalf("probe %d: finished %v, err %v", i, fin, err)
		}
		beam := sess.Tokens()
		svc.Close(sess.ID)
		if len(beam) != len(greedy) {
			t.Fatalf("probe %d: lengths %d vs %d", i, len(beam), len(greedy))
		}
		for j := range greedy {
			if beam[j] != greedy[j] {
				t.Fatalf("probe %d: beam-1 diverged from greedy at %d", i, j)
			}
		}
	}
}
