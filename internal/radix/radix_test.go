package radix

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestSortMatchesStableSort pins Sort, with ties broken by position, to a
// stable comparator sort by key on key sets that exercise every digit, shared
// digits and heavy ties.
func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		key  func(i int) uint32
	}{
		{"random", func(int) uint32 { return rng.Uint32() }},
		{"few", func(int) uint32 { return uint32(rng.Intn(4)) << 24 }},
		{"equal", func(int) uint32 { return 7 }},
		{"descending", func(i int) uint32 { return uint32(1<<20 - i) }},
		{"middle-digit", func(int) uint32 { return 0xab0000ff | uint32(rng.Intn(256))<<8 }},
	} {
		for _, n := range []int{0, 1, 2, 1000} {
			keys := make([]uint32, n)
			order := make([]int32, n)
			for i := range keys {
				keys[i], order[i] = c.key(i), int32(i)
			}
			want := slices.Clone(order)
			slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
			Sort(order, make([]int32, n), keys, func(a, b int32) int { return cmp.Compare(a, b) })
			if !slices.Equal(order, want) {
				t.Errorf("%s, %d keys: got %v, want %v", c.name, n, order, want)
			}
		}
	}
}
