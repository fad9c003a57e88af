//go:build race

package apnic

// raceEnabled reports whether the race detector is on. Under race,
// sync.Pool drops items at random, so code that formats through fmt's
// printer pool allocates a varying amount and the alloc-budget test
// checks only the budget, not exact equality.
const raceEnabled = true
