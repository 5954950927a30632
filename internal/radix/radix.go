// Package radix sorts dense positions by 32-bit keys, comparing only ties:
// a trace's tasks by VM ID for the replay index, and by time for the stream.
package radix

import "slices"

// Sort reorders order, a permutation of the positions keys is indexed by,
// into ascending key order, and each run of equal keys by tie. The key order
// is an LSD radix sort over 8-bit digits that skips any digit all keys share;
// positions move between order and scratch (as long, left garbled) and keys
// are read through them, so nothing is allocated.
func Sort(order, scratch []int32, keys []uint32, tie func(a, b int32) int) {
	var counts [4][256]int
	for _, k := range keys {
		counts[0][k&0xff]++
		counts[1][k>>8&0xff]++
		counts[2][k>>16&0xff]++
		counts[3][k>>24]++
	}
	src, dst := order, scratch
	for d := range counts {
		shift, c := 8*d, &counts[d]
		if slices.Contains(c[:], len(keys)) {
			continue // every key has the same digit here
		}
		sum := 0
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, p := range src {
			b := keys[p] >> shift & 0xff
			dst[c[b]] = p
			c[b]++
		}
		src, dst = dst, src
	}
	copy(order, src)
	for i, j := 0, 1; i < len(order); i = j {
		for j = i + 1; j < len(order) && keys[order[j]] == keys[order[i]]; j++ {
		}
		slices.SortFunc(order[i:j], tie)
	}
}
