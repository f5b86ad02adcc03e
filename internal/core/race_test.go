//go:build race

package core

// raceEnabled reports a -race build. The race runtime allocates on
// synchronization (even a bare kvstore read), so allocation gates
// only hold without it.
const raceEnabled = true
