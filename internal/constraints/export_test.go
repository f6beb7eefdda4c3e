package constraints

import "reflect"

// DistinctPairBagBytes is the pair-bag part of a footprint estimate
// counted by bag identity: each distinct bag once, however many
// variables alias it.
func DistinctPairBagBytes(sol *Solution) int {
	seen := map[uintptr]bool{}
	total := 0
	for _, b := range sol.pairVals {
		id := reflect.ValueOf(b).Pointer()
		if !seen[id] {
			seen[id] = true
			total += b.footprintBytes()
		}
	}
	return total
}
