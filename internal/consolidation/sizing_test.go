package consolidation

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// sizingPopulation builds a seeded population of n VMs. Shape 0 is random
// demand. The other shapes are made of 0.9- and 7.2-core VMs, whose sums land
// on or next to multiples of Cores*target (8*0.9 = 7.2, 16*0.9 = 14.4), with
// the last VM trimmed so the fold in order ends on such a multiple (shape 1),
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

// FuzzSizingBracket checks the Demand the online loop sizes its arrivals
// from. The loop once rounded its running booked sums outward to a bracket
// that had to contain the fold; it now keeps the population's Demand with
// Add, which is the fold itself. On random and boundary-hugging populations,
// a Demand built by adding the VMs in order is SumDemand of them in every
// field, bit for bit, and every policy plans from it exactly what Plan makes
// of the population, also at fleet sizes that clamp the plan.
func FuzzSizingBracket(f *testing.F) {
	for shape := uint8(0); shape < 4; shape++ {
		for _, n := range []uint16{0, 1, 2, 9, 400, 5000} {
			f.Add(int64(n)+int64(shape)*7919, n, shape, uint16(600))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint16, shape uint8, total uint16) {
		vms := sizingPopulation(seed, int(size)%5001, shape)
		var d Demand
		for _, v := range vms {
			d.Add(v)
		}
		if want := SumDemand(vms); !bitEqual(d, want) {
			t.Fatalf("%d VMs: Add builds\n%+v\nSumDemand folds\n%+v", len(vms), d, want)
		}
		spec := DefaultServerSpec()
		for _, p := range append(AllPolicies(), &ZombieStack{LocalMemoryFraction: 0.3}) {
			if got, want := p.PlanDemand(d, spec, int(total)), p.Plan(vms, spec, int(total)); !bitEqual(got, want) {
				t.Fatalf("%s on %d VMs, %d servers: PlanDemand of the added Demand\n%+v\nPlan\n%+v", p.Name(), len(vms), total, got, want)
			}
		}
	})
}

// bitEqual reports whether two structs hold the same fields, floats compared
// bit for bit (so -0 differs from 0 and a NaN equals itself).
func bitEqual(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if !fa.Equal(fb) {
			return false
		}
	}
	return true
}
