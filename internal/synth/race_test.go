//go:build race

package synth

// raceEnabled reports a test binary built with the race detector, under
// which the tests that walk tens of millions of sends skip.
const raceEnabled = true
