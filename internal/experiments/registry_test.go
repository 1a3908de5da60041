package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestEveryRunHasGolden: make experiments-check diffs each run against
// testdata/<name>.golden, so a Registry run without one would go
// unchecked.
func TestEveryRunHasGolden(t *testing.T) {
	for _, e := range Registry {
		if _, err := os.Stat(filepath.Join("testdata", e.Name+".golden")); err != nil {
			t.Errorf("run %q has no golden output: %v", e.Name, err)
		}
	}
}
