package enmc

import (
	"fmt"
	"sort"

	"enmc/internal/experiments"
)

// RunExperiment regenerates one of the paper's tables or figures (or
// one of this repository's extension experiments) and returns it as
// formatted text. Names are cmd/enmc-bench's (see ExperimentNames);
// quick runs the preset of `enmc-bench -quick`, which shrinks the
// algorithm-level workloads for a fast smoke run.
func RunExperiment(name string, quick bool) (string, error) {
	for _, e := range experiments.Registry {
		if e.Name != name {
			continue
		}
		t, err := e.Run(experiments.Options(42, quick))
		if err != nil {
			return "", err
		}
		return t.String(), nil
	}
	return "", fmt.Errorf("enmc: unknown experiment %q (see ExperimentNames)", name)
}

// ExperimentNames lists the runnable experiments in sorted order.
func ExperimentNames() []string {
	names := make([]string, len(experiments.Registry))
	for i, e := range experiments.Registry {
		names[i] = e.Name
	}
	sort.Strings(names)
	return names
}
