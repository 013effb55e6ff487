//go:build !race

package legacy

const raceEnabled = false
