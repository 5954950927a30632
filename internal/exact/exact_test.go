package exact

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// oraclePrec holds every finite float64 sum exactly: 2 098 bits span the
// range, and the rest is carry headroom.
const oraclePrec = 2400

// finite maps an arbitrary bit pattern onto a finite float64 by lowering a
// NaN's or an infinity's exponent to the largest finite one.
func finite(b uint64) float64 {
	if b>>52&0x7ff == 0x7ff {
		b &^= 1 << 52
	}
	return math.Float64frombits(b)
}

// check replays ops — a term each, subtracted when its flag is set — on a Sum
// and on a big.Float wide enough to be exact, and compares the two roundings
// bit for bit after every op.
func check(t *testing.T, terms []float64, sub []bool) {
	t.Helper()
	var s Sum
	want := new(big.Float).SetPrec(oraclePrec)
	for i, x := range terms {
		term := new(big.Float).SetFloat64(x)
		if sub[i] {
			s.Add(-x)
			want.Sub(want, term)
		} else {
			s.Add(x)
			want.Add(want, term)
		}
		w, _ := want.Float64()
		if got := s.Float(); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("after %d ops (last %v, sub %v): got %v (%#x), big.Float rounds to %v (%#x)",
				i+1, x, sub[i], got, math.Float64bits(got), w, math.Float64bits(w))
		}
	}
}

// FuzzExactSum is the differential: each 9 bytes are a term, 8 bytes of bit
// pattern and a byte whose low bit makes it a subtraction. The corpus checked
// in under testdata/fuzz holds subnormals only, a sum past MaxFloat64 that
// overflows and comes back, cancellation back to 0, and exact half-way ties
// both ways.
func FuzzExactSum(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var terms []float64
		var sub []bool
		for ; len(data) >= 9 && len(terms) < 256; data = data[9:] {
			terms = append(terms, finite(binary.LittleEndian.Uint64(data)))
			sub = append(sub, data[8]&1 != 0)
		}
		check(t, terms, sub)
	})
}

// TestExactSumCases names the edge cases, then runs seeded random multisets:
// terms drawn from every binade added and later subtracted in another order,
// so the sum passes through every magnitude and returns to exactly zero.
func TestExactSumCases(t *testing.T) {
	max, tiny := math.MaxFloat64, math.SmallestNonzeroFloat64
	ulp := math.Nextafter(1, 2) - 1
	cases := []struct {
		name  string
		terms []float64
		sub   []bool
	}{
		{"subnormals", []float64{tiny, 3 * tiny, math.Float64frombits(1<<52 - 1), tiny}, []bool{false, false, false, false}},
		{"overflow-and-back", []float64{max, max, max, max}, []bool{false, false, true, true}},
		{"rounds-to-max", []float64{max, math.Ldexp(1, 969)}, []bool{false, false}},
		{"half-way-to-inf", []float64{max, math.Ldexp(1, 970)}, []bool{false, false}},
		{"tie-to-even-down", []float64{1, ulp / 2}, []bool{false, false}},
		{"tie-to-even-up", []float64{1 + ulp, ulp / 2}, []bool{false, false}},
		{"sticky-far-below", []float64{1, ulp / 2, tiny}, []bool{false, false, false}},
		{"cancellation", []float64{1e300, 1, 1e300, 1}, []bool{false, false, true, true}},
		{"negative", []float64{1, 3, 0.1}, []bool{false, true, false}},
		{"negative-zero", []float64{math.Copysign(0, -1)}, []bool{false}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { check(t, c.terms, c.sub) })
	}
	rng := rand.New(rand.NewSource(40))
	for range 200 {
		n := 1 + rng.Intn(40)
		terms := make([]float64, 2*n)
		sub := make([]bool, 2*n)
		for i := range n {
			terms[i] = finite(rng.Uint64() &^ (1 << 63))
			if rng.Intn(2) == 0 {
				terms[i] = math.Ldexp(1+rng.Float64(), rng.Intn(60)-30)
			}
		}
		for i, j := range rng.Perm(n) {
			terms[n+i], sub[n+i] = terms[j], true
		}
		check(t, terms, sub)
	}
}

// TestCarryEvery starts a Sum in the state 2^30-1 adds (or subtractions) of
// the largest subnormal leave — its lowest word near 2^62 — and checks the
// next term carries and the sum stays exact.
func TestCarryEvery(t *testing.T) {
	x := math.Float64frombits(1<<52 - 1) // puts 2^32-1 in the lowest word
	for _, sign := range []float64{1, -1} {
		var s Sum
		n := int64(carryEvery - 1)
		s.word[2], s.word[3], s.pending = int64(sign)*n*mask, int64(sign)*n*(1<<20-1), carryEvery-1
		s.Add(sign * x)
		if s.pending != 0 {
			t.Fatalf("sign %v: the %d-th term did not carry", sign, carryEvery)
		}
		want := new(big.Float).SetPrec(oraclePrec).SetFloat64(sign * x)
		want.Mul(want, new(big.Float).SetInt64(carryEvery))
		if w, _ := want.Float64(); s.Float() != w {
			t.Fatalf("sign %v, after %d terms: got %v, want %v", sign, carryEvery, s.Float(), w)
		}
	}
}
