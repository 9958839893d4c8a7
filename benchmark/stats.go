package main

import (
	"math"
	"sort"
)

// fast10 is the benchmark's host-time estimator: the mean of the fastest
// tenth of the samples, and of at least three. Every rep does a
// bit-identical, fixed amount of work, so all rep-to-rep variation is
// external to the program and the fast tail is the least disturbed view
// of it (README, rule 2).
func fast10(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s) + 9) / 10
	if k < 3 {
		k = 3
	}
	if k > len(s) {
		k = len(s)
	}
	return mean(s[:k])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method),
// so the A/A report computes spreads the way the acceptance pipeline does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, and 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digestWords is the FNV-1a digest of a shared-memory snapshot.
func digestWords(words []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		for i := 0; i < 64; i += 8 {
			h ^= w >> i & 0xff
			h *= 1099511628211
		}
	}
	return h
}
