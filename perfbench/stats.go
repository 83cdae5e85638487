package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile:
// fewer make the tail a guess, so the run fails instead of printing one.
const minBeyond = 10

// quantile returns the q-quantile (0 <= q <= 1) of sorted, interpolating
// linearly between the two closest ranks (numpy's default, Python's
// statistics.quantiles method "inclusive").
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns samples in ascending order without touching samples.
func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// median returns the median of samples; samples must not be empty.
func median(samples []float64) float64 {
	return quantile(sortedCopy(samples), 0.5)
}

// percentiles returns the median and the p-th percentile of one sample set.
// It fails when the set is empty or when fewer than minBeyond samples lie
// beyond the p-th percentile.
func percentiles(samples []float64, p float64) (p50, tail float64, err error) {
	n := len(samples)
	if n == 0 {
		return 0, 0, fmt.Errorf("no samples")
	}
	if beyond := float64(n) * (100 - p) / 100; beyond < minBeyond {
		return 0, 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d: run longer", p, n, beyond, minBeyond)
	}
	s := sortedCopy(samples)
	return quantile(s, 0.5), quantile(s, p/100), nil
}
