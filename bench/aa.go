package main

import (
	"fmt"
	"math"
)

// runAA is the A/A check: n alternating pairs of sets, each set every
// workload once, all on the current tree. Sets 0, 2, 4, … are side A
// and sets 1, 3, 5, … side B; a pair shares its seed and every pair
// has another. For each end-to-end metric and workload it prints both
// sides' quartiles, the spread between A's quartiles as a share of its
// median, and the gap by which B's median is worse than A's, beside
// the bound. Since both sides are the same code, a gap beyond the
// bound means the benchmark cannot hold that metric to that bound, and
// the exit code is non-zero.
func runAA(s *site, n int, seed int64, seconds float64) int {
	type key struct{ workload, metric string }
	sides := [2]map[key][]float64{{}, {}}
	code := 0
	for set := 0; set < 2*n; set++ {
		for _, name := range workloadNames {
			opt := options{workload: name, seed: seed + int64(set/2), seconds: seconds}
			rep, err := runWorkload(s, opt)
			if err != nil {
				fmt.Printf("bench: %s: %v\n", name, err)
				return 1
			}
			if rep.failed > 0 {
				rep.print()
				code = 1
			}
			for _, d := range endToEnd {
				k := key{name, d.name}
				sides[set%2][k] = append(sides[set%2][k], rep.values[d.name].Value)
			}
			fmt.Printf("set %d (%c) %s seed %d done\n", set, 'A'+rune(set%2), name, opt.seed)
		}
	}
	fmt.Printf("\nA/A over %d pairs of sets, %.0f s per workload\n", n, seconds)
	fmt.Println("| workload | metric | A q1 / median / q3 | B q1 / median / q3 | A spread | gap | bound |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			a, b := sides[0][key{name, d.name}], sides[1][key{name, d.name}]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			gap := worsening(d, a2, b2)
			verdict := ""
			if gap > d.bound {
				verdict = " EXCEEDED"
				code = 1
			}
			fmt.Printf("| %s | %s | %.5g / %.5g / %.5g | %.5g / %.5g / %.5g | %.4f | %+.4f | %.2f%s |\n",
				name, d.name, a1, a2, a3, b1, b2, b3, spread(a), gap, d.bound, verdict)
		}
	}
	return code
}

// worsening is how much worse the value b is than a, as a share of a:
// positive when b is worse in the metric's direction.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}
