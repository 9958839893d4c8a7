//go:build !race

package isa

const raceEnabled = false
