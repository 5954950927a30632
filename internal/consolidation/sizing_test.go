package consolidation

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sizer is what the online loop asks of a planner beyond Plan.
type sizer interface {
	Policy
	ActiveHostsFor(vms int, bookedCPU, bookedMem float64, spec ServerSpec, totalServers int) int
}

// sizingPopulation builds a seeded population of n VMs. Shape 0 is random
// demand. The other shapes are made of 0.9- and 7.2-core VMs, whose sums land
// on or next to multiples of Cores*target (8*0.9 = 7.2, 16*0.9 = 14.4), with
// the last VM trimmed so the ID-order fold ends on such a multiple (shape 1),
// one ulp above it (shape 2) or one ulp below it (shape 3) whenever the
// floats allow.
func sizingPopulation(seed int64, n int, shape uint8) []VMDemand {
	rng := rand.New(rand.NewSource(seed))
	vms := make([]VMDemand, n)
	for i := range vms {
		cpu := 0.25 + 7.75*rng.Float64()
		if shape%4 != 0 {
			cpu = []float64{0.9, 7.2}[rng.Intn(2)]
		}
		vms[i] = VMDemand{BookedCPU: cpu, BookedMemGiB: cpu * 2, UsedCPU: cpu * rng.Float64(), UsedMemGiB: cpu * rng.Float64()}
	}
	if n < 2 || shape%4 == 0 {
		return vms
	}
	prefix := sumTotals(vms[:n-1])
	edge := func(prefix, perHost float64) float64 {
		b := perHost * math.Ceil(prefix/perHost+1)
		switch shape % 4 {
		case 2:
			b = math.Nextafter(b, math.Inf(1))
		case 3:
			b = math.Nextafter(b, 0)
		}
		return b - prefix
	}
	vms[n-1].BookedCPU = edge(prefix.BookedCPU, 8*0.9)
	vms[n-1].BookedMemGiB = edge(prefix.BookedMemGiB, 16*0.9)
	return vms
}

// FuzzSizingBracket is the differential test of the sizing rule the online
// loop evaluates in place of Plan. For Neat and ZombieStack, on random and
// boundary-hugging populations: (a) Plan's ActiveHosts is ActiveHostsFor of
// the ID-order fold; (b) for the same terms summed in other orders (shuffled,
// ascending, descending), SumBracket of that sum contains the fold, and the
// rule at the bracket's ends contains Plan's answer; (c) the rule is
// nondecreasing in each sum, across neighbouring floats, a random step and
// overflow to the fleet size.
func FuzzSizingBracket(f *testing.F) {
	for shape := uint8(0); shape < 4; shape++ {
		for _, n := range []uint16{0, 1, 2, 9, 400, 5000} {
			f.Add(int64(n)+int64(shape)*7919, n, shape, uint16(600))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shape uint8, total uint16) {
		vms := sizingPopulation(seed, int(size)%5001, shape)
		n, fleet, spec := len(vms), int(total), DefaultServerSpec()
		fold := sumTotals(vms)
		foldCPU, foldMem := fold.BookedCPU, fold.BookedMemGiB
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for _, p := range []sizer{NewNeat(), NewZombieStack(), &ZombieStack{LocalMemoryFraction: 0.3}} {
			rule := func(cpu, mem float64) int { return p.ActiveHostsFor(n, cpu, mem, spec, fleet) }
			exact := p.Plan(vms, spec, fleet).ActiveHosts
			if got := rule(foldCPU, foldMem); got != exact {
				t.Fatalf("%s: Plan sizes %d hosts, the rule on its fold %d", p.Name(), exact, got)
			}

			perm := append([]VMDemand(nil), vms...)
			for order := 0; order < 4; order++ {
				switch order {
				case 2: // ascending: the most accurate order
					slices.SortFunc(perm, func(a, b VMDemand) int { return cmp.Compare(a.BookedCPU, b.BookedCPU) })
				case 3: // descending: the least accurate
					slices.SortFunc(perm, func(a, b VMDemand) int { return cmp.Compare(b.BookedCPU, a.BookedCPU) })
				default:
					rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				}
				sums := sumTotals(perm)
				cpu, mem := sums.BookedCPU, sums.BookedMemGiB
				cpuLo, cpuHi := SumBracket(cpu, n)
				memLo, memHi := SumBracket(mem, n)
				if foldCPU < cpuLo || foldCPU > cpuHi || foldMem < memLo || foldMem > memHi {
					t.Fatalf("order %d: fold (%v, %v) outside the bracket [%v, %v] x [%v, %v] of (%v, %v)",
						order, foldCPU, foldMem, cpuLo, cpuHi, memLo, memHi, cpu, mem)
				}
				if lo, hi := rule(cpuLo, memLo), rule(cpuHi, memHi); exact < lo || exact > hi {
					t.Fatalf("%s order %d: Plan sizes %d hosts outside the rule's bracket [%d, %d]", p.Name(), order, exact, lo, hi)
				}
			}

			// (c) each sum in turn, the other held at its fold.
			for _, arg := range []struct {
				name string
				fold float64
				at   func(float64) int
			}{
				{"CPU", foldCPU, func(v float64) int { return rule(v, foldMem) }},
				{"memory", foldMem, func(v float64) int { return rule(foldCPU, v) }},
			} {
				step := arg.fold * rng.Float64()
				for _, below := range []float64{0, arg.fold - step, math.Nextafter(arg.fold, 0)} {
					if got := arg.at(below); got > exact {
						t.Fatalf("%s: not monotone in %s: %v sizes %d, %v below it sizes %d", p.Name(), arg.name, arg.fold, exact, below, got)
					}
				}
				for _, above := range []float64{math.Nextafter(arg.fold, math.Inf(1)), arg.fold + step, math.MaxFloat64} {
					if got := arg.at(above); got < exact {
						t.Fatalf("%s: not monotone in %s: %v sizes %d, %v above it sizes %d", p.Name(), arg.name, arg.fold, exact, above, got)
					}
				}
			}
		}
	})
}
