//go:build race

package core

// raceEnabled reports a -race build: there sync.Pool drops a random
// share of Puts, so pool-backed allocation counts are not stable.
const raceEnabled = true
