//go:build !race

package ingest

// raceEnabled reports a -race build, where sync.Pool drops pooled items at
// random and allocation counts stop measuring the code.
const raceEnabled = false
