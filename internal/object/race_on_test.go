//go:build race

package object_test

// raceEnabled reports a -race build, whose sync.Pool deliberately drops
// a share of Puts, so allocation gates do not hold under it.
const raceEnabled = true
