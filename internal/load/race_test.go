//go:build race

package load

// raceEnabled: the race detector allocates on its own account, so the
// allocation test skips.
const raceEnabled = true
