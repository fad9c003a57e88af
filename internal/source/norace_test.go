//go:build !race

package source_test

const raceEnabled = false
