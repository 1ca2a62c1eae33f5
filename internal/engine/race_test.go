//go:build race

package engine

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of Puts, so pooled-session allocation counts only hold without it.
const raceEnabled = true
