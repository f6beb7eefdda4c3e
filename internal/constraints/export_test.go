package constraints

import "fx10/internal/intset"

// DistinctPairSetBytes is the pair-set part of a footprint estimate
// counted by identity: each distinct pair set once, however many
// variables alias it.
func DistinctPairSetBytes(sol *Solution) int {
	seen := map[*intset.PairSet]bool{}
	total := 0
	for _, m := range sol.pairVals {
		if !seen[m] {
			seen[m] = true
			total += m.MemoryFootprint()
		}
	}
	return total
}
