package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples
// at or below it. It returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle value (the mean of the two middle values
// for an even count) without disturbing vals.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sortedIn returns the durations in the given unit, ascending.
func sortedIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

// medianIn is the median of the durations in the given unit.
func medianIn(ds []time.Duration, unit time.Duration) float64 {
	return median(sortedIn(ds, unit))
}

// interleave orders n = Σ counts items of len(counts) classes so that
// every prefix holds the classes in proportion to their counts
// (largest-deficit rule): walking the order round-robin prices the
// same mix whatever the number of steps. It returns each position's
// class.
func interleave(counts []int) []int {
	total := 0
	for _, c := range counts {
		total += c
	}
	placed := make([]int, len(counts))
	order := make([]int, 0, total)
	for p := 0; p < total; p++ {
		best, bestDeficit := -1, math.Inf(-1)
		for class, c := range counts {
			if placed[class] >= c {
				continue
			}
			deficit := float64(c)*float64(p+1)/float64(total) - float64(placed[class])
			if deficit > bestDeficit {
				best, bestDeficit = class, deficit
			}
		}
		order = append(order, best)
		placed[best]++
	}
	return order
}
