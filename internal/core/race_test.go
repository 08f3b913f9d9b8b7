//go:build race

package core

// raceEnabled reports a build under the race detector, whose own
// bookkeeping shows in allocation counts.
const raceEnabled = true
