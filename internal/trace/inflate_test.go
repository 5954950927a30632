package trace

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"strings"
	"testing"
	"testing/iotest"
)

// inflateAll reads a gzip stream through the import path: gunzip on the
// inflater ring.
func inflateAll(r io.Reader) ([]byte, error) {
	inf := inflate(r)
	defer inf.stop()
	return io.ReadAll(inf)
}

// gunzipAll reads a gzip stream through compress/gzip, the reference.
func gunzipAll(r io.Reader) ([]byte, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

var errSource = errors.New("source failed")

// inflateMatchesGzip fails t unless gunzip and compress/gzip read data, whole,
// a byte at a time and from a source that fails halfway, to the same bytes and
// the same error: an error of the same kind (gzip.ErrHeader,
// gzip.ErrChecksum, io.ErrUnexpectedEOF, a flate.CorruptInputError or the
// source's own) with the same text, so a corrupt-input error names the same
// offset.
func inflateMatchesGzip(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return // gzip.NewReader's io.EOF; the importer inflates nothing without the magic bytes
	}
	for _, src := range []struct {
		name string
		r    func() io.Reader
	}{
		{"whole", func() io.Reader { return bytes.NewReader(data) }},
		{"bytewise", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }},
		{"failing", func() io.Reader { return &failAfter{r: bytes.NewReader(data), n: len(data) / 2, err: errSource} }},
	} {
		got, gotErr := inflateAll(src.r())
		want, wantErr := gunzipAll(src.r())
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: inflated %d bytes, compress/gzip %d, or they differ (errors %v and %v)", src.name, len(got), len(want), gotErr, wantErr)
		}
		if !sameErrKind(gotErr, wantErr) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v (%T), compress/gzip's %v (%T)", src.name, gotErr, gotErr, wantErr, wantErr)
		}
	}
}

func sameErrKind(a, b error) bool {
	for _, k := range []error{nil, gzip.ErrHeader, gzip.ErrChecksum, io.ErrUnexpectedEOF, errSource} {
		if (a == k) != (b == k) {
			return false
		}
	}
	var ca, cb flate.CorruptInputError
	return errors.As(a, &ca) == errors.As(b, &cb)
}

// gzipLevel compresses data into one gzip member at level.
func gzipLevel(tb testing.TB, data []byte, level int, hdr gzip.Header) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	zw.Header = hdr
	if _, err := zw.Write(data); err != nil || zw.Close() != nil {
		tb.Fatal("gzip:", err)
	}
	return buf.Bytes()
}

var gzipLevels = []int{gzip.HuffmanOnly, gzip.NoCompression, gzip.BestSpeed, gzip.DefaultCompression, gzip.BestCompression}

// inflateSample is a little of everything a trace file holds, plus runs and
// repeats for LZ77 to find.
func inflateSample(tb testing.TB) []byte {
	tb.Helper()
	tr, err := GenerateFamily("mlbatch", FamilyParams{Machines: 8, HorizonSec: 3600, Tasks: 300, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	var plain bytes.Buffer
	if err := tr.EncodeCSV(&plain, false); err != nil {
		tb.Fatal(err)
	}
	plain.WriteString(strings.Repeat("z", 700) + strings.Repeat("ab", 300) + "\n")
	return plain.Bytes()
}

// TestInflateMatchesGzip: streams far larger than the ring's blocks, at every
// level, inflate to the bytes deflated, and a multi-member stream of every
// level, whole and cut inside its last member, reads as compress/gzip reads
// it.
func TestInflateMatchesGzip(t *testing.T) {
	_, gz := serverlessGzip(t)
	plain, err := gunzipAll(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	plain = plain[:512<<10]
	var multi []byte
	for _, level := range gzipLevels {
		in := gzipLevel(t, plain, level, gzip.Header{})
		got, err := inflateAll(bytes.NewReader(in))
		if err != nil || !bytes.Equal(got, plain) {
			t.Fatalf("level %d: %d bytes, error %v; want the %d bytes in", level, len(got), err, len(plain))
		}
		multi = append(multi, gzipLevel(t, plain[:len(plain)/(level+4)], level, gzip.Header{})...)
	}
	inflateMatchesGzip(t, multi)
	inflateMatchesGzip(t, multi[:len(multi)-100])
}

// deflateBits writes a hand-built deflate stream.
type deflateBits struct {
	out []byte
	acc uint64
	n   uint
}

// put writes the n low bits of v, first bit lowest.
func (w *deflateBits) put(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes the Huffman code c of length l, first bit highest.
func (w *deflateBits) code(c uint16, l uint) {
	w.put(uint64(bits.Reverse16(c)>>(16-l)), l)
}

func (w *deflateBits) bytes() []byte {
	if w.n > 0 {
		w.put(0, 8-w.n)
	}
	return w.out
}

// canonical returns the canonical codes of lens.
func canonical(lens []uint8) []uint16 {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint16, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// clen19 is a complete code-length code over all 19 symbols.
var clen19 = func() (l [19]uint8) {
	for s := range l {
		l[s] = 4
		if s >= 13 {
			l[s] = 5
		}
	}
	return
}()

// dynamicHeader writes a final dynamic block's header for nlit and ndist
// codes, with clens as the code-length code and syms as the code-length
// symbols, each with its extra bits.
func (w *deflateBits) dynamicHeader(nlit, ndist int, clens [19]uint8, syms [][2]int) {
	w.put(1|2<<1, 3)
	w.put(uint64(nlit-257), 5)
	w.put(uint64(ndist-1), 5)
	w.put(19-4, 4)
	for _, s := range clenOrder {
		w.put(uint64(clens[s]), 3)
	}
	codes := canonical(clens[:])
	for _, s := range syms {
		w.code(codes[s[0]], uint(clens[s[0]]))
		switch s[0] {
		case 16:
			w.put(uint64(s[1]), 2)
		case 17:
			w.put(uint64(s[1]), 3)
		case 18:
			w.put(uint64(s[1]), 7)
		}
	}
}

// lengthSyms lists lens as code-length symbols with no repeats.
func lengthSyms(lens []uint8) [][2]int {
	syms := make([][2]int, len(lens))
	for i, l := range lens {
		syms[i] = [2]int{int(l)}
	}
	return syms
}

// gzipMember wraps raw deflate data in a gzip member whose trailer sums out.
func gzipMember(deflate, out []byte) []byte {
	m := append([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}, deflate...)
	m = binary.LittleEndian.AppendUint32(m, crc32.ChecksumIEEE(out))
	return binary.LittleEndian.AppendUint32(m, uint32(len(out)))
}

// handBuiltMembers are deflate streams compress/gzip's writer never emits,
// most of them corrupt, each in a gzip member.
func handBuiltMembers() map[string][]byte {
	fixedLit := func(w *deflateBits, s int) { // RFC 1951 3.2.6
		switch {
		case s < 144:
			w.code(uint16(0x30+s), 8)
		case s < 256:
			w.code(uint16(0x190+s-144), 9)
		case s < 280:
			w.code(uint16(s-256), 7)
		default:
			w.code(uint16(0xc0+s-280), 8)
		}
	}
	fixed := func(body func(w *deflateBits)) []byte {
		var w deflateBits
		w.put(1|1<<1, 3)
		body(&w)
		return w.bytes()
	}
	// A dynamic block whose literal/length code gives 'a', 'b', the
	// end-of-block and length 3 two bits each and whose distance code has
	// dists, then a body.
	dynamic := func(dists []uint8, body func(w *deflateBits, lit, dist []uint16)) []byte {
		lits := make([]uint8, 258)
		lits['a'], lits['b'], lits[256], lits[257] = 2, 2, 2, 2
		var w deflateBits
		w.dynamicHeader(len(lits), len(dists), clen19, lengthSyms(append(lits, dists...)))
		body(&w, canonical(lits), canonical(dists))
		return w.bytes()
	}
	m := map[string][]byte{
		"match-past-history": gzipMember(fixed(func(w *deflateBits) {
			fixedLit(w, 'a')
			fixedLit(w, 257)
			w.code(1, 5) // distance 2
			fixedLit(w, 256)
		}), []byte("aaaa")),
		"fixed-symbol-286": gzipMember(fixed(func(w *deflateBits) { fixedLit(w, 'a'); fixedLit(w, 286) }), []byte("a")),
		"fixed-distance-30": gzipMember(fixed(func(w *deflateBits) {
			fixedLit(w, 'a')
			fixedLit(w, 257)
			w.code(30, 5)
		}), []byte("a")),
		"block-type-3":    gzipMember([]byte{0x07}, nil),
		"stored-bad-nlen": gzipMember([]byte{0x01, 0x03, 0x00, 0xfc, 0xfe, 'a', 'b', 'c'}, []byte("abc")),
		"stored-then-fixed": gzipMember(append([]byte{0x00, 0x03, 0x00, 0xfc, 0xff, 'a', 'b', 'c'},
			fixed(func(w *deflateBits) { fixedLit(w, 257); w.code(2, 5); fixedLit(w, 256) })...), []byte("abcabc")),
		"hlit-287": gzipMember(func() []byte {
			var w deflateBits
			w.put(1|2<<1, 3)
			w.put(30, 5)
			w.put(0, 9)
			return w.bytes()
		}(), nil),
		"hdist-32": gzipMember(func() []byte {
			var w deflateBits
			w.put(1|2<<1, 3)
			w.put(0, 5)
			w.put(31, 5)
			w.put(0, 4)
			return w.bytes()
		}(), nil),
		"clen-oversubscribed": gzipMember(func() []byte {
			var w deflateBits
			var clens [19]uint8
			clens[0], clens[1], clens[2] = 1, 1, 1
			w.dynamicHeader(257, 1, clens, nil)
			return w.bytes()
		}(), nil),
		"lit-incomplete": gzipMember(func() []byte {
			lits := make([]uint8, 257)
			lits['a'], lits[256] = 2, 2
			var w deflateBits
			w.dynamicHeader(257, 1, clen19, lengthSyms(append(lits, 1)))
			return w.bytes()
		}(), nil),
		"repeat-first": gzipMember(func() []byte {
			var w deflateBits
			w.dynamicHeader(257, 1, clen19, [][2]int{{16, 0}})
			return w.bytes()
		}(), nil),
		"repeat-overrun": gzipMember(func() []byte {
			var w deflateBits
			w.dynamicHeader(257, 1, clen19, [][2]int{{18, 127}, {18, 127}, {18, 127}})
			return w.bytes()
		}(), nil),
		"single-code-literal-tree": gzipMember(func() []byte {
			lits := make([]uint8, 257)
			lits[256] = 1
			var w deflateBits
			w.dynamicHeader(257, 1, clen19, lengthSyms(append(lits, 0)))
			w.put(1, 1) // the code no symbol has
			return w.bytes()
		}(), nil),
		"empty-distance-tree": gzipMember(dynamic([]uint8{0}, func(w *deflateBits, lit, _ []uint16) {
			w.code(lit['a'], 2)
			w.code(lit[257], 2)
		}), []byte("a")),
		"dynamic-matches": gzipMember(dynamic([]uint8{1, 1}, func(w *deflateBits, lit, dist []uint16) {
			w.code(lit['a'], 2)
			w.code(lit['b'], 2)
			w.code(lit[257], 2)
			w.code(dist[1], 1) // distance 2
			w.code(lit[257], 2)
			w.code(dist[0], 1) // distance 1
			w.code(lit[256], 2)
		}), []byte("ababaaaa")),
	}
	m["dynamic-then-past-history"] = gzipMember(dynamic([]uint8{1, 1}, func(w *deflateBits, lit, dist []uint16) {
		w.code(lit['a'], 2)
		w.code(lit[257], 2)
		w.code(dist[1], 1)
	}), []byte("a"))
	return m
}

// headerVariants are one member of data with every header flag, with and
// without a correct header CRC, an over-long name, and its header cut short.
func headerVariants(tb testing.TB, data []byte) map[string][]byte {
	hdr := gzip.Header{Name: "trace.csv", Comment: "rows", Extra: []byte("xy\x00z")}
	full := gzipLevel(tb, data, gzip.BestSpeed, hdr)
	n := 10 + 2 + len(hdr.Extra) + len(hdr.Name) + 1 + len(hdr.Comment) + 1
	withCRC := func(sum uint16) []byte {
		b := append([]byte(nil), full[:n]...)
		b[3] |= 2
		b = binary.LittleEndian.AppendUint16(b, sum)
		return append(b, full[n:]...)
	}
	sum := uint16(crc32.ChecksumIEEE(append(append([]byte(nil), full[:3]...), append([]byte{full[3] | 2}, full[4:n]...)...)))
	return map[string][]byte{
		"all-flags":    full,
		"fhcrc":        withCRC(sum),
		"fhcrc-wrong":  withCRC(^sum),
		"name-511":     gzipLevel(tb, data, gzip.BestSpeed, gzip.Header{Name: strings.Repeat("n", 511)}),
		"name-512":     gzipLevel(tb, data, gzip.BestSpeed, gzip.Header{Name: strings.Repeat("n", 512)}),
		"extra-cut":    full[:14],
		"comment-cut":  full[:n-2],
		"garbage-3":    append(append([]byte(nil), full...), 1, 2, 3),
		"garbage-12":   append(append([]byte(nil), full...), make([]byte, 12)...),
		"crc-flipped":  flip(full, len(full)-8),
		"size-flipped": flip(full, len(full)-1),
	}
}

// flip returns b with the bits of b[i] inverted.
func flip(b []byte, i int) []byte {
	b = append([]byte(nil), b...)
	b[i] ^= 0xff
	return b
}

// TestInflateHandBuiltStreams: streams compress/gzip's writer never emits,
// read as compress/gzip reads them.
func TestInflateHandBuiltStreams(t *testing.T) {
	for name, in := range handBuiltMembers() {
		t.Run(name, func(t *testing.T) { inflateMatchesGzip(t, in) })
	}
	for name, in := range headerVariants(t, []byte("1,1,0,60,1,2,0.5,1\n")) {
		t.Run(name, func(t *testing.T) { inflateMatchesGzip(t, in) })
	}
}

// FuzzInflate: for any bytes, gunzip on the inflater ring and compress/gzip
// emit the same bytes and accept or reject alike, failing with an error of the
// same kind and text (see inflateMatchesGzip). The seeds are every level,
// a multi-member stream, every header flag, every truncation of a small
// stream, and in testdata/fuzz/FuzzInflate the hand-built streams and header
// variants of TestInflateHandBuiltStreams.
func FuzzInflate(f *testing.F) {
	sample := inflateSample(f)
	small := gzipLevel(f, []byte("1,1,0,60,1,2,0.5,1\n2,1,0,60,1,2,0.5,1\n"), gzip.DefaultCompression, gzip.Header{})
	for _, level := range gzipLevels {
		f.Add(gzipLevel(f, sample, level, gzip.Header{}))
	}
	f.Add(append(gzipLevel(f, sample[:500], gzip.BestSpeed, gzip.Header{}), append(small, gzipLevel(f, nil, gzip.DefaultCompression, gzip.Header{})...)...))
	for i := range small {
		f.Add(small[:i])
	}
	for _, in := range headerVariants(f, sample[:300]) {
		f.Add(in)
	}
	f.Fuzz(inflateMatchesGzip)
}

// BenchmarkInflate inflates the 100k-task serverless .csv.gz, the stream an
// online replay pass imports, through gunzip alone (no ring, no rows), and
// the same rows deflated at BestSpeed and DefaultCompression.
func BenchmarkInflate(b *testing.B) {
	_, huffOnly := serverlessGzip(b)
	plain, err := gunzipAll(bytes.NewReader(huffOnly))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		level int
	}{{"huffman-only", gzip.HuffmanOnly}, {"best-speed", gzip.BestSpeed}, {"default", gzip.DefaultCompression}} {
		in := huffOnly
		if c.level != gzip.HuffmanOnly {
			in = gzipLevel(b, plain, c.level, gzip.Header{})
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(plain)))
			buf := make([]byte, 0, histSize+blockSize+maxMatch)
			for range b.N {
				z := newGunzip(bytes.NewReader(in))
				for err := error(nil); err != io.EOF; {
					if buf, _, err = z.fill(buf, blockSize); err != nil && err != io.EOF {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
