package main

import (
	"math"
	"sort"
)

// metric is one reported number: its value, unit and the number of
// samples behind it.
type metric struct {
	Value float64
	Unit  string
	N     int
}

// percentile returns the p-quantile (0 < p < 1) of an ascending
// slice by linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// tailCandidates are the percentiles a timing may be reported at
// beside its median, highest first, each with the sample count from
// which ten samples lie beyond it.
var tailCandidates = [...]struct {
	p    float64
	minN int
}{{0.999, 10000}, {0.99, 1000}, {0.95, 200}, {0.9, 100}}

// tailPercentile applies the percentile rule: the highest candidate
// percentile with at least ten samples beyond it. ok is false when
// even p90 has fewer, and then only the median is reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if n >= c.minN {
			return c.p, true
		}
	}
	return 0, false
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them (the
// "exclusive" method), which is what the benchmark contract measures
// run-to-run spread with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
