//go:build race

package engine

// raceEnabled reports a build under the race detector, whose own
// bookkeeping shows in every allocation count and which empties a sync.Pool
// at random.
const raceEnabled = true
