//go:build !race

package decode

const raceEnabled = false
