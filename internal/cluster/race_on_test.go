//go:build race

package cluster

// raceEnabled reports a -race build, where slices.Grow's
// append(s, make([]T, n)...) is not fused into one allocation.
const raceEnabled = true
