//go:build race

package raster

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation counts are meaningless under it.
const raceEnabled = true
