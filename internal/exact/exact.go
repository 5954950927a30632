// Package exact sums float64s with no rounding error, so a sum depends on no
// order, and rounds it once, correctly, when read: a long (Kulisch)
// accumulator over the float64 range, held as Neal's small superaccumulator
// (arXiv 1505.05571) — 32-bit digits in int64 words, carried only when the
// sum is read or once every 2^30 terms.
package exact

import (
	"math"
	"math/bits"
	"slices"
)

const (
	words      = 70 // two zero words, then 2^-1074 up to 2^1024 and 78 bits more
	mask       = 1<<32 - 1
	carryEvery = 1 << 30 // keeps every word below 2^62 between carries
)

// Sum is an exact running sum of finite float64 terms; the zero value is 0.
type Sum struct {
	word    [words]int64 // word[i] weighs 2^(32(i-2)-1074)
	pending int32        // terms since the last carry
}

// Add adds x, which must be finite; Add(-x) subtracts x.
func (s *Sum) Add(x float64) {
	b := math.Float64bits(x)
	exp := int(b >> 52 & 0x7ff)
	m := b&(1<<52-1) | uint64(min(exp, 1))<<52 // no implicit one if subnormal
	// |x| = m·2^(e-1074), and three words take m shifted into place.
	e := max(exp, 1) - 1
	i, shift := 2+e>>5, uint(e)&31
	lo, mid, hi := int64(m<<shift&mask), int64(m>>(32-shift)&mask), int64(m>>(64-shift))
	if b>>63 != 0 {
		lo, mid, hi = -lo, -mid, -hi
	}
	s.word[i] += lo
	s.word[i+1] += mid
	s.word[i+2] += hi
	if s.pending++; s.pending == carryEvery {
		s.carry()
	}
}

// carry leaves every word in [0, 2^32) but the top one, which keeps the
// sign, and reports whether the sum is negative.
func (s *Sum) carry() bool {
	var c int64
	for i, w := range s.word[:words-1] {
		w += c
		s.word[i], c = w&mask, w>>32
	}
	s.word[words-1] += c
	s.pending = 0
	return s.word[words-1] < 0
}

// Float returns the sum rounded to the nearest float64, ties to even: ±Inf
// when it rounds beyond ±MaxFloat64, and +0 when it is zero.
func (s *Sum) Float() float64 {
	if !s.carry() {
		return s.round()
	}
	var neg Sum
	for i, w := range s.word {
		neg.word[i] = -w
	}
	neg.carry()
	return -neg.round()
}

// round rounds a carried, non-negative sum: of w, its 64 bits from the
// leading one down, it keeps 53 and rounds off the rest and all below.
func (s *Sum) round() float64 {
	h := words - 1
	for h > 2 && s.word[h] == 0 {
		h--
	}
	top, next := uint64(s.word[h])<<32|uint64(s.word[h-1]), uint64(s.word[h-2])
	if top == 0 {
		return 0
	}
	lz := bits.LeadingZeros64(top)
	w := top<<lz | next>>(32-lz)
	m := w >> 11
	if w>>10&1 != 0 && (m&1 != 0 || w&0x3ff != 0 || next<<(32+lz) != 0 ||
		slices.ContainsFunc(s.word[:h-2], func(w int64) bool { return w != 0 })) {
		m++
	}
	return math.Ldexp(float64(m), 32*(h-3)+11-lz-1074)
}
