//go:build race

package client_test

// raceEnabled reports a build under the race detector, whose own
// bookkeeping shows in every allocation count.
const raceEnabled = true
