//go:build !race

package load

const raceEnabled = false
