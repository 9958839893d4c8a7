//go:build race

package isa

// raceEnabled: the race detector allocates on its own account, so the
// allocation tests skip.
const raceEnabled = true
