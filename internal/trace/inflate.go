package trace

import (
	"compress/flate"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
)

// gunzip is the import path's gzip reader: a complete RFC 1952 container
// (multi-member, every header flag, a CRC-32 and ISIZE check per member) over
// a complete RFC 1951 inflater (stored, fixed and dynamic blocks with LZ77
// matches) that decodes straight into the inflater ring's blocks. Its speed
// comes from a 64-bit bit buffer refilled eight bytes at a time and from flat
// lookup tables whose entries decode up to two literals at once; a code longer
// than a table's root goes through a second-level table.
//
// It accepts and rejects what compress/gzip does, emits the same bytes before
// an error and fails with the same error: gzip.ErrHeader, gzip.ErrChecksum,
// io.ErrUnexpectedEOF, the source's own error, or a flate.CorruptInputError at
// compress/flate's offset. That offset counts the bytes compress/flate has
// read of the member's deflate data, and compress/flate reads whole bytes
// lazily: a Huffman symbol loads bytes until it holds max(min, L) bits, where L
// is its code's length and min the table's shortest code (for a dynamic
// literal/length table at least the end-of-block code's length). Errors are
// therefore found by an exact one-symbol-at-a-time path that loads bytes the
// same way, and the fast path leaves every invalid symbol, and every symbol
// near the end of the input, to it. FuzzInflate checks the whole contract
// against compress/gzip.
type gunzip struct {
	r      io.Reader
	srcErr error // the source's first error; its bytes are served before it
	in     []byte
	ip, ie int    // in[ip:ie] is unread
	inOff  int64  // stream offset of in[0]
	bb     uint64 // bit buffer: the next nb bits of the stream, first bit lowest
	nb     uint

	state     int
	final     bool  // the current block is the member's last
	stored    int   // bytes left in the current stored block
	start     int64 // stream offset of the member's deflate data
	litDemand int64 // where compress/flate's loads reached for the last literal/length symbol step decoded
	crc, size uint32
	memberOut int64 // bytes of the member the CRC has covered
	err       error
	prev      []byte // the last block's buffer up to its end: the next one's history

	litMin, distMin uint // compress/flate's h.min for the block's tables
	lit             [1<<litRoot + litSub]uint32
	dist            [1<<distRoot + distSub]uint32
	clen            [1 << clenRoot]uint32
	lens            [maxLit + maxDist]uint8
}

const (
	histSize = 32 << 10 // the deflate window
	maxMatch = 258
	maxLit   = 286
	maxDist  = 30

	// Root bits of the three tables, and room for the literal/length and
	// distance tables' second levels: every second-level table spans the
	// longest code, and a complete code of s symbols has at most s/2 prefixes
	// that lead to longer codes than the root.
	litRoot  = 10
	distRoot = 8
	clenRoot = 7
	litSub   = maxLit / 2 << (15 - litRoot)
	distSub  = maxDist / 2 << (15 - distRoot)
)

// The member states.
const (
	stHeader  = iota // before a member header (clean end of input allowed)
	stBlock          // before a block header
	stStored         // inside a stored block
	stHuff           // inside a Huffman-coded block
	stTrailer        // after a member's final block
)

// A table entry packs, from bit 0: the bits it consumes (5; both codes of a
// literal pair), its kind (3), the length of its first code (4) and a 20-bit
// value.
const (
	kLit  = iota // value: the literal or code-length symbol
	kPair        // value: two literals, the first in the low byte
	kLen         // value: match length base | extra bits << 9
	kDist        // value: distance base | extra bits << 15
	kEOB
	kLink // value: second-level offset | its index bits << 15
	kBad  // a symbol compress/flate decodes and then rejects
	kHole // a code no symbol has, in an empty or single-code table
)

func entry(n, kind, len1 uint, val uint32) uint32 {
	return uint32(n) | uint32(kind)<<5 | uint32(len1)<<8 | val<<12
}

func kindOf(e uint32) uint32 { return e >> 5 & 7 }
func len1Of(e uint32) uint   { return uint(e >> 8 & 15) }

// The entry templates (kind and value) of each table's symbols.
var litSyms, distSyms, clenSyms = func() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for s := range 256 {
		lit[s] = entry(0, kLit, 0, uint32(s))
	}
	lit[256] = entry(0, kEOB, 0, 0)
	base := uint32(3)
	for s := 257; s < 285; s++ {
		extra := uint32(0)
		if s >= 265 {
			extra = uint32(s-261) / 4
		}
		lit[s] = entry(0, kLen, 0, base|extra<<9)
		base += 1 << extra
	}
	lit[285] = entry(0, kLen, 0, maxMatch)
	lit[286], lit[287] = entry(0, kBad, 0, 0), entry(0, kBad, 0, 0)
	for s := range 30 {
		extra, base := uint32(0), uint32(s+1)
		if s >= 4 {
			extra = uint32(s-2) / 2
			base = 1<<(extra+1) + 1 + uint32(s&1)<<extra
		}
		dist[s] = entry(0, kDist, 0, base|extra<<15)
	}
	dist[30], dist[31] = entry(0, kBad, 0, 0), entry(0, kBad, 0, 0)
	for s := range clen {
		clen[s] = entry(0, kLit, 0, uint32(s))
	}
	return
}()

// clenOrder is the order of the code-length code's lengths in a dynamic
// block header.
var clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// build fills t (root bits, then second-level tables) with the canonical code
// of lens and returns its shortest length. Like compress/flate it refuses an
// over-subscribed or incomplete code, except an empty one and a single code
// of length 1, whose missing codes become holes. With pairs, every entry whose
// first code is a literal and leaves room in the root for a second literal
// code decodes both.
func build(t []uint32, root uint, lens []uint8, syms []uint32, pairs bool) (uint, bool) {
	var count, next [16]uint
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	var lo, hi uint // shortest and longest length
	code := uint(0) // codes used, in units of a 15-bit code
	for l := uint(1); l < 16; l++ {
		code <<= 1
		next[l] = code
		code += count[l]
		if count[l] != 0 {
			hi = l
			if lo == 0 {
				lo = l
			}
		}
	}
	size := uint(1) << root
	switch {
	case code == 1<<15:
	case hi == 0 || hi == 1 && code == 1<<14:
		for i := range t[:size] {
			t[i] = entry(0, kHole, 0, 0)
		}
	default:
		return 0, false
	}
	if hi > root {
		// Every root index from the first long code's prefix on leads to
		// longer codes, in canonical order.
		sub := hi - root
		off := size
		for j := next[root+1] >> 1; j < size; j++ {
			t[reverse(j, root)] = entry(0, kLink, 0, uint32(off)|uint32(sub)<<15)
			off += 1 << sub
		}
	}
	for s, l8 := range lens {
		l := uint(l8)
		if l == 0 {
			continue
		}
		r := reverse(next[l], l)
		next[l]++
		e := syms[s] | entry(l, 0, l, 0)
		if l <= root {
			for i := r; i < size; i += 1 << l {
				t[i] = e
			}
			continue
		}
		link := t[r&(size-1)] >> 12
		sub := uint(link >> 15)
		for i := r >> root; i < 1<<sub; i += 1 << (l - root) {
			t[uint(link&0x7fff)+i] = e
		}
	}
	if pairs {
		for i, e := range t[:size] {
			l := len1Of(e)
			if k := kindOf(e); k != kLit && k != kPair || l >= root {
				continue
			}
			e2 := t[uint(i)>>l]
			if k2, l2 := kindOf(e2), len1Of(e2); (k2 == kLit || k2 == kPair) && l+l2 <= root {
				t[i] = entry(l+l2, kPair, l, e>>12&0xff|(e2>>12&0xff)<<8)
			}
		}
	}
	return lo, true
}

// reverse returns the n-bit code c with its bits in stream order.
func reverse(c, n uint) uint { return uint(bits.Reverse16(uint16(c))) >> (16 - n) }

func newGunzip(r io.Reader) *gunzip {
	return &gunzip{r: r, in: make([]byte, 32<<10)}
}

// fill decodes the next run of the stream into a buffer, b when it has room
// for the history and size bytes, and returns that buffer and the run's
// bytes, which follow up to 32 KiB of history copied from the last run.
func (z *gunzip) fill(b []byte, size int) (buf, run []byte, err error) {
	h := min(len(z.prev), histSize)
	if cap(b) < h+size+maxMatch {
		b = make([]byte, h+size+maxMatch)
	}
	b = b[:cap(b)]
	copy(b, z.prev[len(z.prev)-h:])
	n, err := z.decode(b, h, h+size)
	z.prev = b[:n]
	return b, b[h:n], err
}

// decode decodes into out[pos:] until pos reaches limit or the stream ends
// or fails; a symbol may write up to maxMatch bytes past limit. out[:pos] is
// the history.
func (z *gunzip) decode(out []byte, pos, limit int) (int, error) {
	sumFrom := pos
	for pos < limit && z.err == nil {
		switch z.state {
		case stHeader:
			z.err = z.header()
		case stBlock:
			z.err = z.blockHeader()
		case stStored:
			pos, z.err = z.copyStored(out, pos, limit)
		case stHuff:
			// A match may reach back to the member's first byte.
			lo := 0
			if z.memberOut < int64(sumFrom) {
				lo = sumFrom - int(z.memberOut)
			}
			pos, z.err = z.huffman(out, pos, limit, lo)
		case stTrailer:
			z.sum(out[sumFrom:pos])
			sumFrom = pos
			z.err = z.trailer()
		}
	}
	z.sum(out[sumFrom:pos])
	return pos, z.err
}

// sum adds a member's output to its CRC and size.
func (z *gunzip) sum(b []byte) {
	z.crc = crc32.Update(z.crc, crc32.IEEETable, b)
	z.size += uint32(len(b))
	z.memberOut += int64(len(b))
}

// read moves the unread input to the front of the buffer, keeping the eight
// bytes before it that the bit buffer may hand back, and reads more. It
// fails only when no byte came; the source's error is then returned for
// good.
func (z *gunzip) read() error {
	if z.srcErr != nil {
		return z.srcErr
	}
	keep := min(z.ip, 8)
	z.inOff += int64(z.ip - keep)
	z.ie = copy(z.in, z.in[z.ip-keep:z.ie])
	z.ip = keep
	for {
		n, err := z.r.Read(z.in[z.ie:])
		z.ie += n
		if err != nil {
			z.srcErr = err
		}
		if n > 0 {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// readFull reads len(p) bytes as io.ReadFull does.
func (z *gunzip) readFull(p []byte) error {
	for n := 0; n < len(p); {
		if z.ip == z.ie {
			if err := z.read(); err != nil {
				if err == io.EOF && n > 0 {
					return io.ErrUnexpectedEOF
				}
				return err
			}
		}
		k := copy(p[n:], z.in[z.ip:z.ie])
		z.ip += k
		n += k
	}
	return nil
}

func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// header reads a member header; io.EOF means the stream ended cleanly
// before it.
func (z *gunzip) header() error {
	var h [10]byte
	if err := z.readFull(h[:]); err != nil {
		return err
	}
	if h[0] != gzipMagic[0] || h[1] != gzipMagic[1] || h[2] != 8 {
		return errGzipHeader
	}
	flg := h[3]
	digest := crc32.ChecksumIEEE(h[:])
	if flg&4 != 0 { // FEXTRA
		if err := z.readFull(h[:2]); err != nil {
			return noEOF(err)
		}
		digest = crc32.Update(digest, crc32.IEEETable, h[:2])
		for n := int(binary.LittleEndian.Uint16(h[:2])); n > 0; {
			if z.ip == z.ie {
				if err := z.read(); err != nil {
					return noEOF(err)
				}
			}
			k := min(n, z.ie-z.ip)
			digest = crc32.Update(digest, crc32.IEEETable, z.in[z.ip:z.ip+k])
			z.ip += k
			n -= k
		}
	}
	for _, f := range [...]byte{8, 16} { // FNAME, FCOMMENT: compress/gzip reads 512 bytes at most
		for i := 0; flg&f != 0; i++ {
			if i == 512 {
				return errGzipHeader
			}
			if err := z.readFull(h[:1]); err != nil {
				return noEOF(err)
			}
			digest = crc32.Update(digest, crc32.IEEETable, h[:1])
			if h[0] == 0 {
				break
			}
		}
	}
	if flg&2 != 0 { // FHCRC
		if err := z.readFull(h[:2]); err != nil {
			return noEOF(err)
		}
		if binary.LittleEndian.Uint16(h[:2]) != uint16(digest) {
			return errGzipHeader
		}
	}
	z.start = z.inOff + int64(z.ip)
	z.crc, z.size, z.memberOut, z.litDemand = 0, 0, 0, 0
	z.state = stBlock
	return nil
}

// trailer checks a member's CRC-32 and size.
func (z *gunzip) trailer() error {
	z.align()
	var t [8]byte
	if err := z.readFull(t[:]); err != nil {
		return noEOF(err)
	}
	if binary.LittleEndian.Uint32(t[:4]) != z.crc || binary.LittleEndian.Uint32(t[4:]) != z.size {
		return errGzipChecksum
	}
	z.state = stHeader
	return nil
}

// pos is the bit offset of the next unread bit in the member's deflate data.
func (z *gunzip) pos() int64 { return 8*(z.inOff+int64(z.ip)-z.start) - int64(z.nb) }

// corrupt is compress/flate's error for a stream found corrupt once it has
// loaded the bits up to end: its offset is the bytes loaded so far.
func (z *gunzip) corrupt(end int64) error {
	return flate.CorruptInputError((max(end, z.litDemand) + 7) / 8)
}

// need loads whole bytes until the bit buffer holds n bits.
func (z *gunzip) need(n uint) error {
	for ; z.nb < n; z.nb += 8 {
		if z.ip == z.ie {
			if err := z.read(); err != nil {
				return noEOF(err)
			}
		}
		z.bb |= uint64(z.in[z.ip]) << z.nb
		z.ip++
	}
	return nil
}

// take consumes n bits and returns them.
func (z *gunzip) take(n uint) uint32 {
	v := uint32(z.bb & (1<<n - 1))
	z.bb >>= n
	z.nb -= n
	return v
}

// align drops the bits of a partial byte and hands the whole bytes in the
// bit buffer back to the input.
func (z *gunzip) align() {
	z.ip -= int(z.nb >> 3)
	z.bb, z.nb = 0, 0
}

// sym decodes one symbol of t as compress/flate's huffSym does: it loads
// whole bytes until the bit buffer holds min bits and then the code the bits
// so far select. A hole is corrupt input there; input ending first is
// io.ErrUnexpectedEOF.
func (z *gunzip) sym(t []uint32, root, min uint) (uint32, error) {
	c := z.pos()
	if err := z.need(min); err != nil {
		return 0, err
	}
	for {
		e := t[z.bb&(1<<root-1)] // bits missing from the buffer read as zeros
		if kindOf(e) == kLink {
			v := e >> 12
			e = t[uint(v&0x7fff)+uint(z.bb>>root)&(1<<(v>>15)-1)]
		}
		if l := len1Of(e); l <= z.nb {
			if kindOf(e) == kHole {
				return 0, z.corrupt(c + int64(min))
			}
			z.take(l)
			return e, nil
		}
		if err := z.need(z.nb + 1); err != nil {
			return 0, err
		}
	}
}

// blockHeader reads a block header and, for a Huffman block, its tables.
func (z *gunzip) blockHeader() error {
	if err := z.need(3); err != nil {
		return err
	}
	z.final = z.take(1) == 1
	switch z.take(2) {
	case 0:
		z.align()
		var h [4]byte
		if err := z.readFull(h[:]); err != nil {
			return noEOF(err)
		}
		n := binary.LittleEndian.Uint16(h[:2])
		if binary.LittleEndian.Uint16(h[2:]) != ^n {
			return z.corrupt(z.pos())
		}
		z.stored = int(n)
		z.state = stStored
		return nil
	case 1: // RFC 1951 3.2.6
		var lens [288 + 32]uint8
		for s := range lens {
			switch {
			case s < 144, s >= 280 && s < 288:
				lens[s] = 8
			case s < 256:
				lens[s] = 9
			case s < 280:
				lens[s] = 7
			default:
				lens[s] = 5
			}
		}
		z.litMin, _ = build(z.lit[:], litRoot, lens[:288], litSyms[:], true)
		z.distMin, _ = build(z.dist[:], distRoot, lens[288:], distSyms[:], false)
	case 2:
		if err := z.dynamic(); err != nil {
			return err
		}
	default:
		return z.corrupt(z.pos())
	}
	z.state = stHuff
	return nil
}

// dynamic reads a dynamic block's code lengths and builds its tables.
func (z *gunzip) dynamic() error {
	c := z.pos()
	if err := z.need(14); err != nil {
		return err
	}
	nlit, ndist, nclen := int(z.bb&31)+257, int(z.bb>>5&31)+1, int(z.bb>>10&15)+4
	if nlit > maxLit || ndist > maxDist {
		return z.corrupt(c + 14)
	}
	z.take(14)
	var clens [19]uint8
	for _, s := range clenOrder[:nclen] {
		if err := z.need(3); err != nil {
			return err
		}
		clens[s] = uint8(z.take(3))
	}
	clenMin, ok := build(z.clen[:], clenRoot, clens[:], clenSyms[:], false)
	if !ok {
		return z.corrupt(z.pos())
	}
	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := z.sym(z.clen[:], clenRoot, clenMin)
		if err != nil {
			return err
		}
		x := uint8(e >> 12)
		if x < 16 {
			lens[i] = x
			i++
			continue
		}
		rep, nb, v := 3, uint(2), uint8(0)
		switch x {
		case 16:
			if i == 0 {
				return z.corrupt(z.pos())
			}
			v = lens[i-1]
		case 17:
			nb = 3
		case 18:
			rep, nb = 11, 7
		}
		if err := z.need(nb); err != nil {
			return err
		}
		rep += int(z.take(nb))
		if i+rep > len(lens) {
			return z.corrupt(z.pos())
		}
		for range rep {
			lens[i] = v
			i++
		}
	}
	var okLit, okDist bool
	if z.litMin, okLit = build(z.lit[:], litRoot, lens[:nlit], litSyms[:], true); okLit {
		z.distMin, okDist = build(z.dist[:], distRoot, lens[nlit:], distSyms[:], false)
	}
	if !okDist {
		return z.corrupt(z.pos())
	}
	z.litMin = max(z.litMin, uint(lens[256]))
	return nil
}

// copyStored copies a stored block's bytes.
func (z *gunzip) copyStored(out []byte, pos, limit int) (int, error) {
	for z.stored > 0 && pos < limit {
		if z.ip == z.ie {
			if err := z.read(); err != nil {
				return pos, noEOF(err)
			}
		}
		n := copy(out[pos:min(limit, pos+z.stored)], z.in[z.ip:z.ie])
		z.ip += n
		pos += n
		z.stored -= n
	}
	if z.stored == 0 {
		z.endBlock()
	}
	return pos, nil
}

func (z *gunzip) endBlock() {
	z.state = stBlock
	if z.final {
		z.state = stTrailer
	}
}

// huffman decodes a Huffman block's symbols into out from pos until the
// block ends or pos reaches limit. A match may not reach back before lo.
func (z *gunzip) huffman(out []byte, pos, limit, lo int) (int, error) {
	for pos < limit {
		if z.ie-z.ip < 8 {
			_ = z.read() // an error stays in srcErr until its bytes are needed
		}
		if z.ie-z.ip >= 8 {
			var eob bool
			if pos, eob = z.fast(out, pos, limit, lo); eob {
				return pos, nil
			}
			if pos >= limit {
				break
			}
		}
		var eob bool
		var err error
		if pos, eob, err = z.step(out, pos, lo); err != nil || eob {
			return pos, err
		}
	}
	return pos, nil
}

// fast decodes symbols while the input holds eight bytes past the bit
// buffer, one refill per match or run of literals. It stops at limit, at the
// block's end, which it reports, or before a symbol only step decodes as
// compress/flate would: an invalid code or a match past the member's start.
func (z *gunzip) fast(out []byte, pos, limit, lo int) (int, bool) {
	in, ip, ie := z.in, z.ip, z.ie
	bb, nb := z.bb, z.nb
	lit, dist := &z.lit, &z.dist
	eob := false
loop:
	for pos < limit && ip <= ie-8 {
		bb |= binary.LittleEndian.Uint64(in[ip:]) << (nb & 63)
		ip += int((63 - nb) >> 3)
		nb |= 56
		e := lit[bb&(1<<litRoot-1)]
		if kindOf(e) <= kPair {
			// A run of literals: one refill serves five root entries.
			for {
				out[pos] = byte(e >> 12)
				out[pos+1] = byte(e >> 20)
				pos += 1 + int(e>>5&1)
				n := uint(e & 31)
				bb >>= n
				nb -= n
				if nb < litRoot || pos >= limit {
					continue loop
				}
				if e = lit[bb&(1<<litRoot-1)]; kindOf(e) > kPair {
					continue loop
				}
			}
		}
		bb0, nb0 := bb, nb
		if kindOf(e) == kLink {
			v := e >> 12
			e = lit[uint(v&0x7fff)+uint(bb>>litRoot)&(1<<(v>>15)-1)]
		}
		n := uint(e & 31)
		switch kindOf(e) {
		case kLit, kPair:
			out[pos] = byte(e >> 12)
			out[pos+1] = byte(e >> 20)
			pos += 1 + int(e>>5&1)
			bb >>= n
			nb -= n
			continue
		case kLen:
		case kEOB:
			bb >>= n
			nb -= n
			eob = true
			break loop
		default:
			break loop
		}
		bb >>= n
		nb -= n
		v := e >> 12
		x := uint(v >> 9)
		length := int(v&511) + int(bb&(1<<x-1))
		bb >>= x
		nb -= x
		d := dist[bb&(1<<distRoot-1)]
		if kindOf(d) == kLink {
			v := d >> 12
			d = dist[uint(v&0x7fff)+uint(bb>>distRoot)&(1<<(v>>15)-1)]
		}
		if kindOf(d) != kDist {
			bb, nb = bb0, nb0
			break
		}
		n = uint(d & 31)
		bb >>= n
		nb -= n
		v = d >> 12
		x = uint(v >> 15)
		back := int(v&0x7fff) + int(bb&(1<<x-1))
		bb >>= x
		nb -= x
		if pos-back < lo {
			bb, nb = bb0, nb0
			break
		}
		end := pos + length
		if back >= length {
			copy(out[pos:end], out[pos-back:])
			pos = end
			continue
		}
		for from := pos - back; pos < end; {
			pos += copy(out[pos:end], out[from:pos])
		}
	}
	z.ip, z.bb, z.nb = ip, bb&(1<<nb-1), nb
	if eob {
		z.endBlock()
	}
	return pos, eob
}

// step decodes one symbol, and a match's distance, exactly as compress/flate
// does, and reports whether it ended the block.
func (z *gunzip) step(out []byte, pos, lo int) (int, bool, error) {
	c := z.pos()
	e, err := z.sym(z.lit[:], litRoot, z.litMin)
	if err != nil {
		return pos, false, err
	}
	z.litDemand = c + int64(max(z.litMin, len1Of(e)))
	v := e >> 12
	switch kindOf(e) {
	case kLit, kPair:
		out[pos] = byte(v)
		return pos + 1, false, nil
	case kEOB:
		z.endBlock()
		return pos, true, nil
	case kBad:
		return pos, false, z.corrupt(z.pos())
	}
	x := uint(v >> 9)
	if err := z.need(x); err != nil {
		return pos, false, err
	}
	length := int(v&511) + int(z.take(x))
	d, err := z.sym(z.dist[:], distRoot, z.distMin)
	if err != nil {
		return pos, false, err
	}
	if kindOf(d) == kBad {
		return pos, false, z.corrupt(z.pos())
	}
	v = d >> 12
	x = uint(v >> 15)
	if err := z.need(x); err != nil {
		return pos, false, err
	}
	back := int(v&0x7fff) + int(z.take(x))
	if pos-back < lo {
		return pos, false, z.corrupt(z.pos())
	}
	for from, end := pos-back, pos+length; pos < end; {
		pos += copy(out[pos:end], out[from:pos])
	}
	return pos, false, nil
}
