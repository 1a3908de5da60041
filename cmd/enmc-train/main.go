// Command enmc-train distills an approximate screener from a
// serialized classifier and a feature file, completing the repo's
// deployment flow: train once, ship the screener image to inference
// hosts. It is the only command that trains: enmc-serve and
// enmc-shard load what it writes or publishes.
//
// Usage:
//
//	enmc-train -classifier cls.bin -features feats.bin -out scr.bin \
//	           [-k 128] [-bits 4] [-epochs 8] [-seed 1]
//	enmc-train -demo                      # generate a demo pair first
//	enmc-train -classifier cls.bin -features feats.bin \
//	           -registry ./models -version v2 -parent v1 [-probe 32]
//
// File formats are the binary formats of SaveClassifier /
// WriteFeatures (see internal/core). -demo writes demo-cls.bin and
// demo-feats.bin into the current directory so the flow can be tried
// without external data:
//
//	enmc-train -demo
//	enmc-train -classifier demo-cls.bin -features demo-feats.bin -out demo-scr.bin
//	enmc-serve -classifier demo-cls.bin -screener demo-scr.bin
//
// Either way the command runs one training run (core.TrainScreener).
// With -registry it first refuses a -version that is already
// published, holds out the last -probe feature samples (at most a
// quarter of them) from training, and then publishes the version
// atomically (classifier, screener, held-out probe set, checksummed
// manifest) for enmc-serve to hot-swap in.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"enmc/internal/core"
	"enmc/internal/quant"
	"enmc/internal/registry"
	"enmc/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "enmc-train:", err)
		os.Exit(1)
	}
}

// run is the whole command: progress goes to stdout, flag errors and
// usage to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("enmc-train", flag.ExitOnError)
	fs.SetOutput(stderr)
	clsPath := fs.String("classifier", "", "serialized classifier (SaveClassifier format)")
	featPath := fs.String("features", "", "serialized hidden-state samples (WriteFeatures format)")
	outPath := fs.String("out", "screener.bin", "output path for the trained screener")
	k := fs.Int("k", 0, "reduced dimension (default d/4)")
	bits := fs.Int("bits", 4, "screening precision: 2, 4 or 8")
	epochs := fs.Int("epochs", 8, "distillation epochs")
	seed := fs.Uint64("seed", 1, "projection/training seed")
	demo := fs.Bool("demo", false, "write demo-cls.bin and demo-feats.bin, then exit")

	regRoot := fs.String("registry", "", "publish into this versioned model registry instead of -out")
	version := fs.String("version", "", "registry version to publish (required with -registry)")
	parent := fs.String("parent", "", "parent version recorded in the manifest")
	probeCount := fs.Int("probe", 32, "registry mode: held-out probe samples reserved from the feature tail")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits here

	if *demo {
		return writeDemo(stdout)
	}
	if *clsPath == "" || *featPath == "" {
		return errors.New("usage: enmc-train -classifier cls.bin -features feats.bin [-out scr.bin | -registry dir -version v1]")
	}
	var store *registry.Store
	if *regRoot != "" {
		if *version == "" {
			return errors.New("-registry needs -version")
		}
		var err error
		if store, err = registry.Open(*regRoot); err != nil {
			return err
		}
		if err := store.CanPublish(*version); err != nil {
			return err
		}
	}

	cls, err := loadClassifier(*clsPath)
	if err != nil {
		return err
	}
	feats, err := loadFeatures(*featPath)
	if err != nil {
		return err
	}
	// The probe set comes from the sample tail and is never trained on.
	var probe [][]float32
	if store != nil {
		n := len(feats) - min(max(*probeCount, 0), len(feats)/4)
		feats, probe = feats[:n], feats[n:]
	}
	fmt.Fprintf(stdout, "classifier: %d classes × %d dims; %d training samples\n",
		cls.Categories(), cls.Hidden(), len(feats))

	kk := *k
	if kk <= 0 {
		kk = cls.Hidden() / 4
	}
	cfg := core.Config{
		Categories: cls.Categories(),
		Hidden:     cls.Hidden(),
		Reduced:    kk,
		Precision:  quant.Bits(*bits),
		Seed:       *seed,
	}
	scr, stats, err := core.TrainScreener(cls, feats, cfg, core.TrainOptions{
		Epochs: *epochs,
		Seed:   *seed + 1,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(stdout, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	finalLoss := stats.EpochLoss[len(stats.EpochLoss)-1]
	fmt.Fprintf(stdout, "converged: final MSE %.6g over %d epochs\n", finalLoss, len(stats.EpochLoss))

	if store != nil {
		m, err := store.Publish(registry.Manifest{
			Version: *version,
			Parent:  *parent,
			Train:   registry.TrainMeta{Epochs: len(stats.EpochLoss), Samples: len(feats), FinalLoss: finalLoss},
		}, cls, scr, probe)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "published %s/%s (seq %d, %s, probe %d)\n",
			*regRoot, m.Version, m.Seq, m.PrecisionString(), len(probe))
		return nil
	}

	out, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	n, err := scr.WriteTo(out)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", *outPath, err)
	}
	fmt.Fprintf(stdout, "wrote %s (%.2f MB; %.1f%% of the classifier)\n",
		*outPath, float64(n)/(1<<20), 100*float64(scr.WeightBytes())/float64(cls.WeightBytes()))
	return nil
}

func loadClassifier(path string) (*core.Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cls, err := core.ReadClassifier(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cls, nil
}

func loadFeatures(path string) ([][]float32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	feats, err := core.ReadFeatures(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return feats, nil
}

func writeDemo(stdout io.Writer) error {
	inst := workload.Demo(2048, 128, 7)
	var cls, feats bytes.Buffer
	if _, err := inst.Classifier.WriteTo(&cls); err != nil {
		return err
	}
	if _, err := core.WriteFeatures(&feats, inst.Train); err != nil {
		return err
	}
	if err := os.WriteFile("demo-cls.bin", cls.Bytes(), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile("demo-feats.bin", feats.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote demo-cls.bin and demo-feats.bin; now run:")
	fmt.Fprintln(stdout, "  enmc-train -classifier demo-cls.bin -features demo-feats.bin -out demo-scr.bin")
	fmt.Fprintln(stdout, "  enmc-serve -classifier demo-cls.bin -screener demo-scr.bin")
	return nil
}
