package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0–100) of xs, interpolating
// linearly between closest ranks (the "R-7" rule); 0 for no samples. xs is
// not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
