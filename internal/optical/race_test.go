//go:build race

package optical

const raceEnabled = true
