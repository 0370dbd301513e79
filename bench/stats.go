package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0 < q < 1) of xs by linear interpolation
// between order statistics at position q·(n+1) (Hyndman–Fan type 6, the
// "exclusive" method of Python's statistics.quantiles), clamped to the
// sample range. xs need not be sorted; it is not modified. NaN for no data.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := q * float64(n+1)
	switch {
	case h <= 1:
		return s[0]
	case h >= float64(n):
		return s[n-1]
	}
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples lying above the q-quantile of n samples: the
// quantile sits between order statistics ⌊q(n+1)⌋ and ⌊q(n+1)⌋+1, so every
// sample from the latter up is beyond it.
func beyond(n int, q float64) int {
	return max(0, n-int(math.Floor(q*float64(n+1))))
}

// minBeyond is how many samples a reported tail percentile must have above
// it; fewer and the percentile is one or two outliers, not a tail.
const minBeyond = 10

// quartileSpread is the distance between the first and third quartiles of
// xs as a share of their median (0 when the median is 0).
func quartileSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}

// mean is NaN for no data.
func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Max(xs)
}
