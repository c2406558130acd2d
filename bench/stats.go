package main

import "sort"

// summary is one metric's distribution over a run's repetitions.
type summary struct {
	N                   int
	Median, Q1, Q3, Max float64
}

// summarize returns the median, quartiles and maximum of xs. The quartiles
// follow the default "exclusive" method of Python's
// statistics.quantiles(xs, n=4), so they agree digit for digit with a
// spread computed from the printed results in Python; a single sample is
// its own median and quartiles.
func summarize(xs []float64) summary {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	s := summary{N: len(d)}
	switch len(d) {
	case 0:
		return s
	case 1:
		s.Median, s.Q1, s.Q3, s.Max = d[0], d[0], d[0], d[0]
		return s
	}
	s.Q1, s.Median, s.Q3, s.Max = quartile(d, 1), quartile(d, 2), quartile(d, 3), d[len(d)-1]
	return s
}

// quartile is the i-th of the three cut points dividing sorted d (len ≥ 2)
// into four, interpolated as statistics.quantiles' exclusive method does.
func quartile(d []float64, i int) float64 {
	const n = 4
	m := len(d) + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > len(d)-1 {
		j = len(d) - 1
	}
	delta := float64(i*m - j*n)
	return (d[j-1]*(n-delta) + d[j]*delta) / n
}
