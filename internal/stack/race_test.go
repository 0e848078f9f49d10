//go:build race

package stack

// raceEnabled reports whether the race detector instruments this build;
// its shadow bookkeeping perturbs testing.AllocsPerRun counts.
const raceEnabled = true
