//go:build race

package photonoc

// raceEnabled reports a -race build, whose instrumentation changes what
// the allocation gates count.
const raceEnabled = true
