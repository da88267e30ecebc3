//go:build race

package campaign

// raceEnabled reports that the race detector is active: allocation gates
// are skipped because the detector's instrumentation allocates on its own.
const raceEnabled = true
