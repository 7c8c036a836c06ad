//go:build !race

package frontend

// raceEnabled reports whether the race detector instruments this build;
// allocation budgets are skipped under it.
const raceEnabled = false
