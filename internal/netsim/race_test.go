//go:build race

package netsim

// raceEnabled reports a test binary built with the race detector, whose
// sync.Pool drops a random share of Puts, so allocation counts that rely on
// the scratch pool are not pinned under it.
const raceEnabled = true
