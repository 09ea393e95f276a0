//go:build race

package matrix

// raceEnabled reports whether the race detector is on. sync.Pool deliberately
// drops items under it, so the zero-allocation pins only hold in the plain
// lane.
const raceEnabled = true
