package exact

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
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

// check replays ops — a term each, subtracted when its flag is set — as
// AddDiff entries on two numbers of the grid the terms' span makes, one
// gaining what the other loses, and on a big.Float wide enough to be exact,
// and compares the roundings bit for bit after every op: the one number's
// to the big.Float's, the other's to its negation.
func check(t *testing.T, terms []float64, sub []bool) {
	t.Helper()
	var span Span
	for _, x := range terms {
		span.Cover(x)
	}
	g := span.Grid(len(terms))
	z, neg := make([]uint64, g.Words), make([]uint64, g.Words)
	want := new(big.Float).SetPrec(oraclePrec)
	for i, x := range terms {
		term := new(big.Float).SetFloat64(x)
		if sub[i] {
			g.AddDiff(neg, z, []float64{x})
			want.Sub(want, term)
		} else {
			g.AddDiff(z, neg, []float64{x})
			want.Add(want, term)
		}
		w, _ := want.Float64()
		if got := g.Float(z); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("after %d ops (last %v, sub %v) on a %d-word grid: got %v (%#x), big.Float rounds to %v (%#x)",
				i+1, x, sub[i], g.Words, got, math.Float64bits(got), w, math.Float64bits(w))
		}
		if w != 0 {
			w = -w // and a zero sum is +0 either way
		}
		if got := g.Float(neg); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("after %d ops (last %v, sub %v): the negated sum rounds to %v, want %v", i+1, x, sub[i], got, w)
		}
	}
}

// FuzzExactSum is the differential: each 9 bytes are a term, 8 bytes of bit
// pattern and a byte whose low bit makes it a subtraction, all summed on the
// grid their span makes. The corpus checked
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

// TestWideGrid sums terms near 2^-1000 and 2^1000, whose span needs far more
// than two words, and checks the grid is that wide and the sums exact.
func TestWideGrid(t *testing.T) {
	tiny, huge := math.Ldexp(1.25, -1000), math.Ldexp(1.75, 1000)
	terms := []float64{huge, tiny, 3 * tiny, huge, -tiny, huge, huge, tiny}
	sub := []bool{false, false, false, true, false, false, true, true}
	var span Span
	for _, x := range terms {
		span.Cover(x)
	}
	if g := span.Grid(len(terms)); g.Words <= 2 {
		t.Fatalf("a span from 2^-1000 to 2^1000 got a %d-word grid", g.Words)
	}
	check(t, terms, sub)
}

// TestGridHeadroom adds, for terms at several binades, 2n terms at the
// span's top binade — the largest magnitude any of n tasks' adds and
// subtracts reach — and checks no sum wraps: every prefix rounds to the
// big.Float sum, and so does the total with its sign flipped. The span is the
// one term's, 53 bits wide, so n = 1000 needs 53+11 bits and a sign bit: one
// bit past a word.
func TestGridHeadroom(t *testing.T) {
	for _, top := range []int{-1000, 0, 63, 64, 1000} {
		for _, n := range []int{1, 2, 3, 1000, 1 << 12} {
			x := math.Ldexp(1-math.Ldexp(1, -53), top) // the largest float below 2^top
			var span Span
			span.Cover(x)
			g := span.Grid(2 * n)
			z, neg := make([]uint64, g.Words), make([]uint64, g.Words)
			for i := 1; i <= 2*n; i++ {
				g.AddDiff(z, neg, []float64{x})
				want, _ := new(big.Float).SetPrec(oraclePrec).Mul(big.NewFloat(x), big.NewFloat(float64(i))).Float64()
				if got := g.Float(z); got != want {
					t.Fatalf("top 2^%d, n %d: %d terms sum to %v, want %v", top, n, i, got, want)
				}
				if got := g.Float(neg); got != -want {
					t.Fatalf("top 2^%d, n %d: %d negative terms sum to %v, want %v", top, n, i, got, -want)
				}
			}
		}
	}
}

// TestMerge enters the terms, two to a cell, into a difference array of
// three cells, once whole and once split between two arrays, and checks each
// cell of the merged halves rounds as the whole one's does.
func TestMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for range 100 {
		terms := make([]float64, 2*(1+rng.Intn(30)))
		var span Span
		for i := range terms {
			terms[i] = math.Ldexp(rng.Float64()-0.5, rng.Intn(200)-100)
			span.Cover(terms[i])
		}
		g := span.Grid(len(terms))
		cell := 2 * g.Words
		all, a, b := make([]uint64, 3*cell), make([]uint64, 3*cell), make([]uint64, 3*cell)
		for i := 0; i < len(terms); i += 2 {
			from, to := rng.Intn(3), rng.Intn(3)
			g.AddDiff(all[from*cell:], all[to*cell:], terms[i:i+2])
			half := a
			if rng.Intn(2) == 0 {
				half = b
			}
			g.AddDiff(half[from*cell:], half[to*cell:], terms[i:i+2])
		}
		for w := 0; w < len(a); w += g.Words {
			Merge(a[w:w+g.Words], b[w:w+g.Words])
			if got, want := g.Float(a[w:w+g.Words]), g.Float(all[w:w+g.Words]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("number %d: merged halves round to %v, the one array to %v", w/g.Words, got, want)
			}
		}
	}
}

// TestGridTakesMultiplesOfItsLowestBit: a grid's lowest bit is the lowest
// set bit of its span's terms, not their last significand bit, and it takes
// any multiple of that bit below the span's top — here 1 and 2, whose last
// significand bits lie far below the lowest set bit of 3 and 6 — exactly,
// into the numbers of a cell.
func TestGridTakesMultiplesOfItsLowestBit(t *testing.T) {
	var span Span
	span.Cover(3, 6)
	g := span.Grid(8)
	if g.Words != 1 {
		t.Fatalf("terms 3 and 6 got a %d-word grid", g.Words)
	}
	z, neg := make([]uint64, 4*g.Words), make([]uint64, 4*g.Words)
	g.AddDiff(z, neg, []float64{1, 2, 6, -3})
	g.AddDiff(z, neg, []float64{2, -1, 0, 0})
	for i, want := range []float64{3, 1, 6, -3} {
		if got := g.Float(z[i*g.Words : (i+1)*g.Words]); got != want {
			t.Fatalf("number %d on the grid of 3 and 6 is %v, want %v", i, got, want)
		}
		if got := g.Float(neg[i*g.Words : (i+1)*g.Words]); got != -want {
			t.Fatalf("number %d's negation on the grid of 3 and 6 is %v, want %v", i, got, -want)
		}
	}
}

// coverRef is the span of the xs by the formula Cover keeps: every nonzero
// term split, its lowest set bit and its top taken one by one.
func coverRef(xs []float64) (low, top int) {
	for _, x := range xs {
		if m, u := split(math.Float64bits(x)); m != 0 {
			low, top = max(low, bias-u), max(top, bias+u+bits.Len64(m))
		}
	}
	return low, top
}

// FuzzCoverFormula holds Cover, which splits only its largest magnitude, to
// coverRef on any finite terms: the same lowest bit, and a largest term with
// the same top. Its inputs are raw bit patterns, so negatives, zeros of
// either sign and subnormals all occur.
func FuzzCoverFormula(f *testing.F) {
	f.Add(uint64(0), uint64(1<<63), uint64(1), uint64(1<<63|1)) // ±0 and ±the least subnormal
	f.Add(math.Float64bits(0.37), math.Float64bits(-1e300), math.Float64bits(3), math.Float64bits(0x1p-1022))
	f.Add(math.Float64bits(-0x1.fffffffffffffp-1023), math.Float64bits(2.5), math.Float64bits(-0x1p+1023), uint64(0x7ff0000000000000))
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		xs := []float64{finite(a), finite(b), finite(c), finite(d)}
		for cut := 0; cut <= len(xs); cut++ {
			// One Cover of the first cut terms and one of the rest, joined.
			var s, rest Span
			s.Cover(xs[:cut]...)
			rest.Cover(xs[cut:]...)
			s.Join(rest)
			low, top := coverRef(xs)
			gotTop := 0
			if s.most != 0 {
				m, u := split(s.most)
				gotTop = bias + u + bits.Len64(m)
			}
			if s.low != low || gotTop != top {
				t.Fatalf("Cover(%v) split at %d: low %d top %d, the per-term formula low %d top %d", xs, cut, s.low, gotTop, low, top)
			}
		}
	})
}
