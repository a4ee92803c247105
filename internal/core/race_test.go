//go:build race

package core_test

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// Puts on purpose, so allocation counts there are not steady-state.
const raceEnabled = true
