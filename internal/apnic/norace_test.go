//go:build !race

package apnic

const raceEnabled = false
