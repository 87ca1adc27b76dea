//go:build race

package testbed

// raceEnabled: see race_off_test.go.
const raceEnabled = true
