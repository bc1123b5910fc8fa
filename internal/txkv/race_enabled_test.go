//go:build race

package txkv

// raceEnabled reports that the race detector is active; it disables
// assertions that depend on sync.Pool reuse (the detector
// intentionally randomizes pool hits).
const raceEnabled = true
