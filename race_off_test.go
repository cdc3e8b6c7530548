//go:build !race

package buffopt_test

// raceEnabled reports whether the race detector is on: its sync.Pool
// drops a quarter of what it is given, so pooled paths allocate more.
const raceEnabled = false
