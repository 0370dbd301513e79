//go:build race

package graph

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// a random share of Puts, so a warm call may find its pool empty and the
// allocation tests cannot hold there.
const raceEnabled = true
