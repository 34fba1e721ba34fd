package main

import (
	"math"
	"slices"
)

// minTail is the number of samples that must lie beyond a percentile
// before it is reported: a p99 over fewer than 1000 samples would be a
// single observation, not a tail.
const minTail = 10

// minTailedSamples is the sample count below which a timing is
// reported as a median alone.
const minTailedSamples = 40

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest
// rank, and whether it may be reported: only when at least minTailedSamples
// samples exist and at least minTail of them lie beyond it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n < minTailedSamples || q <= 0 || q >= 1 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(q*float64(n))) - 1 // 0-based nearest rank
	if n-1-rank < minTail {
		return math.NaN(), false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank], true
}

// quartiles returns the first and third quartiles of xs with the same
// method as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so the spreads this benchmark prints match the ones Python
// gives for the same values.
// tailBlock is the number of consecutive samples whose 99th percentile
// is one tail sample: the smallest block with ten samples beyond its
// p99.
const tailBlock = 1000

// blockP99 is the median, over blocks of tailBlock consecutive samples,
// of each block's 99th percentile, or false with fewer than tailBlock
// samples. A block tail shrugs off a few seconds in which a busy
// neighbour on a shared host slows every request, which a p99 over all
// samples does not.
func blockP99(xs []float64) (float64, bool) {
	var tails []float64
	for i := 0; i+tailBlock <= len(xs); i += tailBlock {
		if p, ok := percentile(xs[i:i+tailBlock], 0.99); ok {
			tails = append(tails, p)
		}
	}
	if len(tails) == 0 {
		return 0, false
	}
	return median(tails), true
}

func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(j int) float64 {
		// statistics.quantiles: m = n+1; j*m/4 split into integer and
		// fractional parts, interpolating between s[j-1] and s[j].
		m := n + 1
		pos := j * m
		k, frac := pos/4, float64(pos%4)/4
		if k < 1 {
			return s[0]
		}
		if k >= n {
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(3)
}

// relSpread is the interquartile distance of xs as a share of its
// median.
func relSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// maxRelDev is the largest distance of any value from the median, as a
// share of the median.
func maxRelDev(xs []float64) float64 {
	m := median(xs)
	worst := 0.0
	for _, x := range xs {
		worst = max(worst, math.Abs(x-m)/m)
	}
	return worst
}
