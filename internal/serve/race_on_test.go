//go:build race

package serve

// raceEnabled reports whether the race detector instruments this test
// binary; allocation accounting skips under it.
const raceEnabled = true
