//go:build race

package backend

// raceEnabled: see race_off_test.go.
const raceEnabled = true
