//go:build race

package monitor

// raceEnabled gates allocation assertions: the race detector's
// instrumentation allocates on paths that are alloc-free in normal
// builds, making testing.AllocsPerRun report false positives.
const raceEnabled = true
