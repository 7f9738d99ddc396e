package main

import (
	"regexp"
	"sort"
)

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs with the
// "exclusive" interpolation of Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's spread check is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
