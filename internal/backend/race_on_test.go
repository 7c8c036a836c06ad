//go:build race

package backend

// raceEnabled reports whether the race detector instruments this build;
// allocation budgets are skipped under it.
const raceEnabled = true
