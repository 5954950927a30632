// Package exact sums float64s with no rounding error, so a sum depends on no
// order, and rounds it once, correctly, when read. The terms fix the format
// (Demmel and Nguyen's observation): a Span collects the binades of every
// term a set of sums will add, and its Grid is a two's-complement
// fixed-point integer of a few 64-bit words whose lowest bit is the lowest
// set bit of any term and whose top leaves room for every carry. An exact
// float sum is then an integer sum.
package exact

import (
	"math"
	"math/bits"
)

// Span is the range of binades a set of finite float64 terms occupies; the
// zero value holds no term.
type Span struct {
	// Every term is a multiple of 2^(bias-low), and no larger in magnitude
	// than the float whose bits, sign cleared, are most: a finite float's
	// magnitude orders as those bits do. The bias keeps low positive for any
	// float64, so both only grow and the zero value is empty.
	low  int
	most uint64
}

const bias = 2200

// split splits a finite x, given as its bits, into an odd m and an exponent
// u with |x| = m·2^u, so 2^u is x's lowest set bit; m is 0 when x is.
func split(b uint64) (m uint64, u int) {
	exp := int(b >> 52 & 0x7ff)
	m = b&(1<<52-1) | uint64(min(exp, 1))<<52 // no implicit one if subnormal
	tz := bits.TrailingZeros64(m) & 63        // 64 only for m = 0, which stays 0
	return m >> tz, max(exp, 1) - 1075 + tz
}

// Cover widens the span to hold the xs, which must be finite. Only the low
// bound needs each term's lowest set bit, 2^u as split finds it: bit 52, the
// implicit one, is set in a normal x's significand and above a subnormal's
// lowest set bit, so it leaves the trailing-zero count alone.
func (s *Span) Cover(xs ...float64) {
	low, most := s.low, s.most
	for _, x := range xs {
		if b := math.Float64bits(x) &^ (1 << 63); b != 0 {
			u := max(int(b>>52), 1) - 1075 + bits.TrailingZeros64(b|1<<52)
			low, most = max(low, bias-u), max(most, b)
		}
	}
	s.low, s.most = low, most
}

// Join widens the span to hold o's terms too.
func (s *Span) Join(o Span) { s.low, s.most = max(s.low, o.low), max(s.most, o.most) }

// Grid returns the format that holds, exactly, every signed sum of at most
// terms of the span's terms: the largest term is below 2^t, a sum of n
// terms below 2^(t+bits.Len(n)), and one more bit keeps the sign.
func (s Span) Grid(terms int) Grid {
	if s.most == 0 {
		return Grid{Words: 1}
	}
	m, u := split(s.most)
	t := u + bits.Len64(m)
	return Grid{Words: (t + s.low - bias + bits.Len(uint(terms)) + 64) / 64, lo: bias - s.low}
}

// Grid is a fixed-point format: a number is Words 64-bit words, least
// significant first, in two's complement, and the lowest bit of word 0
// weighs 2^lo. A number's zero value is Words zero words.
type Grid struct {
	Words int
	lo    int
}

// AddDiff adds each xs[j] to the j-th number of plus and subtracts it from
// the j-th number of minus, where plus and minus hold len(xs) numbers on the
// grid back to back: a difference array's entry of terms that hold from one
// cell up to another. Each x must be finite and on the grid: zero, or a
// multiple of its lowest bit below the span's top, as every term the span
// covers is.
func (g Grid) AddDiff(plus, minus []uint64, xs []float64) {
	k := g.Words
	for j, x := range xs {
		b := math.Float64bits(x)
		m, u := split(b)
		if m == 0 {
			continue
		}
		s := u - g.lo // below 0 for an x off the grid, which then indexes past end
		i, end := j*k+int(uint(s)>>6), (j+1)*k
		lo, hi := m<<(s&63), m>>1>>(^s&63) // a significand spans one word or two
		p, q := plus[:end], minus[:end]
		if int64(b) < 0 {
			p, q = q, p
		}
		// p gains |x| and q loses it, carrying and borrowing to the top
		// word, out of which they wrap.
		var c, d uint64
		p[i], c = bits.Add64(p[i], lo, 0)
		q[i], d = bits.Sub64(q[i], lo, 0)
		for i++; i < end; i++ {
			p[i], c = bits.Add64(p[i], hi, c)
			q[i], d = bits.Sub64(q[i], hi, d)
			hi = 0
		}
	}
}

// Merge adds y to z, two numbers on one grid.
func Merge(z, y []uint64) {
	var c uint64
	for i := range z {
		z[i], c = bits.Add64(z[i], y[i], c)
	}
}

// Float returns z rounded to the nearest float64, ties to even: ±Inf when it
// rounds beyond ±MaxFloat64, and +0 when it is zero.
func (g Grid) Float(z []uint64) float64 {
	low := 0 // z's lowest nonzero word
	for low < len(z) && z[low] == 0 {
		low++
	}
	if low == len(z) {
		return 0
	}
	// The magnitude's words: z's own, or, when z is negative, those of its
	// negation ^z+1, whose carry stops at the lowest nonzero word.
	neg := int64(z[len(z)-1]) < 0
	mag := func(i int) uint64 {
		switch {
		case i < low:
			return 0
		case neg && i == low:
			return -z[i]
		case neg:
			return ^z[i]
		}
		return z[i]
	}
	h := len(z) - 1
	for mag(h) == 0 {
		h--
	}
	// w is the 64 bits from the leading one down: it keeps 53 of them and
	// rounds off the rest and everything below.
	below := mag(h - 1)
	lz := uint(bits.LeadingZeros64(mag(h)))
	w := mag(h)<<lz | below>>(64-lz)
	m := w >> 11
	if w>>10&1 != 0 && (m&1 != 0 || w&0x3ff != 0 || below<<lz != 0 || low < h-1) {
		m++
	}
	f := math.Ldexp(float64(m), g.lo+64*h-int(lz)+11)
	if neg {
		return -f
	}
	return f
}
