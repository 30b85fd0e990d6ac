package benchdb

import (
	"math"
	"sort"
)

// Robust statistics over small benchmark samples. Benchmark rep times
// are contaminated by one-sided outliers (a preempted rep is slow,
// never fast), so the summary statistics here are median/MAD-based:
// a single wild rep moves them barely at all, where mean/stddev would
// be dragged by it.

// Median returns the sample median (0 for an empty sample).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Min returns the smallest sample value (0 for an empty sample).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// MAD returns the median absolute deviation from the median.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// madToSigma scales MAD to a standard-deviation-comparable spread for
// normally distributed samples (1/Φ⁻¹(3/4)).
const madToSigma = 1.4826

// RobustCV returns the MAD-based coefficient of variation,
// madToSigma·MAD/median — the relative spread of the sample,
// insensitive to outlier reps. 0 when the median is not positive.
func RobustCV(xs []float64) float64 {
	med := Median(xs)
	if med <= 0 {
		return 0
	}
	return madToSigma * MAD(xs) / med
}
