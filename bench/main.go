// Command bench is the repository's benchmark: it hosts the real
// serving stack in this process, drives it over loopback HTTP, checks
// every answer, and prints every metric by name with its unit. See
// README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runChildren runs workload × seed as one fresh process each, so that
// every run pays its own set-up from cold memory, and waits for each.
func runChildren(opt runOptions, repeat int) error {
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = names[:0]
		for _, sp := range specs {
			names = append(names, sp.name)
		}
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	for _, name := range names {
		for i := 0; i < repeat; i++ {
			cmd := exec.Command(os.Args[0],
				"--workload", name, "--seed", strconv.FormatUint(opt.seed+uint64(i), 10),
				"--seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "--trace", trace, "--out", opt.out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, opt.seed+uint64(i), err)
			}
		}
	}
	return nil
}

func main() {
	var (
		opt     runOptions
		trace   int
		repeat  int
		compare bool
		spec    string
	)
	flag.StringVar(&opt.workload, "workload", "", `workload to run (see BENCHMARK.json), or "all"`)
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the request vectors and the arrival schedule")
	flag.Float64Var(&opt.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&opt.out, "out", "", "directory that keeps each run's record and, for a traced run, its Chrome trace")
	flag.IntVar(&repeat, "repeat", 1, "run this many times, on seed, seed+1, …, each in a fresh process")
	flag.BoolVar(&compare, "compare", false, "compare two -out directories: bench -compare <a> <b>")
	flag.StringVar(&spec, "spec", "BENCHMARK.json", "benchmark definition that -compare takes its bounds from")
	flag.Parse()
	opt.trace = trace != 0

	err := func() error {
		switch {
		case compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("-compare takes two directories")
			}
			return compareDirs(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		case repeat > 1 || opt.workload == "all":
			return runChildren(opt, repeat)
		}
		rec, err := run(opt)
		if err != nil {
			return err
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
