package checksum

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// refSum is a deliberately naive reference implementation: big-endian
// 16-bit words summed into a wide accumulator, folded at the end.
func refSum(b []byte) uint16 {
	var sum uint64
	for i := 0; i < len(b); i += 2 {
		w := uint64(b[i]) << 8
		if i+1 < len(b) {
			w |= uint64(b[i+1])
		}
		sum += w
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return uint16(sum)
}

func randBytes(r *sim.RNG, n int) []byte {
	b := make([]byte, n)
	r.Fill(b)
	return b
}

func TestKnownVector(t *testing.T) {
	// RFC 1071 §3 example: bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2
	// (before complement).
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := SumULTRIX(b); got != 0xddf2 {
		t.Fatalf("SumULTRIX = %#x, want 0xddf2", got)
	}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#x", got)
	}
}

func TestEmptyAndTiny(t *testing.T) {
	if SumULTRIX(nil) != 0 || SumOptimized(nil) != 0 {
		t.Fatal("empty sum not 0")
	}
	if got := SumULTRIX([]byte{0xab}); got != 0xab00 {
		t.Fatalf("single byte = %#x, want 0xab00", got)
	}
	if got := SumOptimized([]byte{0xab}); got != 0xab00 {
		t.Fatalf("single byte optimized = %#x", got)
	}
}

func TestAllImplementationsAgree(t *testing.T) {
	r := sim.NewRNG(101)
	f := func(n uint16) bool {
		b := randBytes(r, int(n%5000))
		want := refSum(b)
		if SumULTRIX(b) != want || SumOptimized(b) != want {
			return false
		}
		dst := make([]byte, len(b))
		if CopyAndSum(dst, b) != want {
			return false
		}
		return bytes.Equal(dst, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyAndSumCopies(t *testing.T) {
	r := sim.NewRNG(7)
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1400, 8000} {
		src := randBytes(r, n)
		dst := make([]byte, n+3)
		sum := CopyAndSum(dst, src)
		if !bytes.Equal(dst[:n], src) {
			t.Fatalf("n=%d: copy mismatch", n)
		}
		if sum != refSum(src) {
			t.Fatalf("n=%d: sum mismatch", n)
		}
	}
}

func TestCopyAndSumShortDstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short destination did not panic")
		}
	}()
	CopyAndSum(make([]byte, 3), make([]byte, 4))
}

func TestPartialMatchesWhole(t *testing.T) {
	r := sim.NewRNG(55)
	f := func(cuts []uint8) bool {
		// Build a buffer and split it at arbitrary (often odd) points.
		total := 0
		sizes := make([]int, 0, len(cuts)+1)
		for _, c := range cuts {
			sizes = append(sizes, int(c)%257)
			total += int(c) % 257
		}
		b := randBytes(r, total)
		var p, viaCombine Partial
		off := 0
		for _, s := range sizes {
			p.Add(b[off : off+s])
			var q Partial
			q.Add(b[off : off+s])
			viaCombine.Combine(q)
			off += s
		}
		return p.Sum16() == refSum(b) && p.Odd() == (total%2 == 1) &&
			viaCombine.Sum16() == refSum(b) && viaCombine.Odd() == p.Odd()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialCombine(t *testing.T) {
	r := sim.NewRNG(77)
	f := func(n1, n2, n3 uint16) bool {
		a := randBytes(r, int(n1%1000))
		b := randBytes(r, int(n2%1000))
		c := randBytes(r, int(n3%1000))
		whole := append(append(append([]byte{}, a...), b...), c...)

		var pa, pb, pc Partial
		pa.Add(a)
		pb.Add(b)
		pc.Add(c)
		pa.Combine(pb)
		pa.Combine(pc)
		return pa.Sum16() == refSum(whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialAccumulatorNeverOverflows(t *testing.T) {
	// 1 MB of 0xff bytes would overflow a naive uint32 accumulator.
	var p Partial
	chunk := bytes.Repeat([]byte{0xff}, 4096)
	for i := 0; i < 256; i++ {
		p.Add(chunk)
	}
	if got := p.Sum16(); got != 0xffff {
		t.Fatalf("all-ones sum = %#x, want 0xffff", got)
	}
}

func TestAddWordPanicsAtOddOffset(t *testing.T) {
	var p Partial
	p.Add([]byte{1})
	defer func() {
		if recover() == nil {
			t.Fatal("AddWord at odd offset did not panic")
		}
	}()
	p.AddWord(0x1234)
}

func TestVerifyRoundTrip(t *testing.T) {
	r := sim.NewRNG(99)
	f := func(n uint16) bool {
		// A "packet" with a checksum field at offset 2.
		b := randBytes(r, int(n%2000)+4)
		b[2], b[3] = 0, 0
		ck := Checksum(b)
		b[2], b[3] = byte(ck>>8), byte(ck)
		return Verify(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsSingleBitFlips(t *testing.T) {
	// A single bit flip can never turn a valid sum into another valid
	// sum (it cannot convert a 16-bit word between 0x0000 and 0xffff),
	// so detection must be 100%.
	r := sim.NewRNG(123)
	b := randBytes(r, 101)
	b[2], b[3] = 0, 0
	ck := Checksum(b)
	b[2], b[3] = byte(ck>>8), byte(ck)
	if !Verify(b) {
		t.Fatal("baseline packet does not verify")
	}
	for byteIdx := 0; byteIdx < len(b); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			b[byteIdx] ^= 1 << bit
			if Verify(b) {
				t.Fatalf("flip at byte %d bit %d undetected", byteIdx, bit)
			}
			b[byteIdx] ^= 1 << bit
		}
	}
}

func TestTCPPseudo(t *testing.T) {
	// Hand-computed pseudo-header sum.
	src := uint32(0xc0a80101) // 192.168.1.1
	dst := uint32(0xc0a80102)
	p := TCPPseudo(src, dst, 20)
	var want uint32 = 0xc0a8 + 0x0101 + 0xc0a8 + 0x0102 + 6 + 20
	for want>>16 != 0 {
		want = (want & 0xffff) + (want >> 16)
	}
	if got := p.Sum16(); got != uint16(want) {
		t.Fatalf("pseudo sum = %#x, want %#x", got, want)
	}
}

func TestFold(t *testing.T) {
	if got := Fold(0x1ffff); got != 1 {
		t.Fatalf("Fold(0x1ffff) = %#x, want 1", got)
	}
	if got := Fold(0xffff); got != 0xffff {
		t.Fatalf("Fold(0xffff) = %#x", got)
	}
	if got := Fold(0); got != 0 {
		t.Fatalf("Fold(0) = %#x", got)
	}
}

// TestWideSumsMatchULTRIX walks every length that crosses the wide core's
// block boundaries (0…130: the 32-byte unrolled loop, the 8-byte loop and
// every tail length) at every start alignment within a word, and requires
// SumOptimized and CopyAndSum to equal the halfword loop they replace.
// Round 0 is all 0xff, the input on which every add carries.
func TestWideSumsMatchULTRIX(t *testing.T) {
	r := sim.NewRNG(15)
	buf := make([]byte, 130+8)
	dst := make([]byte, 130)
	for round := 0; round < 8; round++ {
		r.Fill(buf)
		if round == 0 {
			for i := range buf {
				buf[i] = 0xff
			}
		}
		for align := 0; align < 8; align++ {
			for n := 0; n <= 130; n++ {
				b := buf[align : align+n]
				want := SumULTRIX(b)
				if got := SumOptimized(b); got != want {
					t.Fatalf("round %d align %d n %d: SumOptimized = %#x, SumULTRIX = %#x", round, align, n, got, want)
				}
				if got := CopyAndSum(dst, b); got != want || !bytes.Equal(dst[:n], b) {
					t.Fatalf("round %d align %d n %d: CopyAndSum = %#x (copied ok: %v), SumULTRIX = %#x",
						round, align, n, got, bytes.Equal(dst[:n], b), want)
				}
			}
		}
	}
}

// splitSums returns the sum of b split at i and j, once by feeding the
// three chunks to one Partial and once by summing each chunk on its own
// and combining.
func splitSums(b []byte, i, j int) (viaAdd, viaCombine uint16) {
	var p, c Partial
	for _, chunk := range [][]byte{b[:i], b[i:j], b[j:]} {
		p.Add(chunk)
		var q Partial
		q.Add(chunk)
		c.Combine(q)
	}
	return p.Sum16(), c.Sum16()
}

// TestPartialEverySplit cuts a buffer at every pair of offsets — empty,
// odd and even chunks in every order, so every combination of the
// odd-parity prefix byte and the dangling suffix byte occurs — and
// requires both ways of accumulating to equal the one-shot sum.
func TestPartialEverySplit(t *testing.T) {
	r := sim.NewRNG(16)
	for _, b := range [][]byte{randBytes(r, 75), bytes.Repeat([]byte{0xff}, 75)} {
		want := SumULTRIX(b)
		for i := 0; i <= len(b); i++ {
			for j := i; j <= len(b); j++ {
				if viaAdd, viaCombine := splitSums(b, i, j); viaAdd != want || viaCombine != want {
					t.Fatalf("split at %d,%d: Add %#x, Combine %#x, one-shot %#x", i, j, viaAdd, viaCombine, want)
				}
			}
		}
	}
}

// FuzzChecksumWide holds everything built on the wide core — both
// one-shot sums and Partial across an arbitrary split — to SumULTRIX.
func FuzzChecksumWide(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint16(3), uint16(5))
	// All 0xff: every add carries, through the unrolled loop, the word
	// loop, the tail and the end-around wrap.
	for _, n := range []int{1, 31, 32, 33, 71, 8000} {
		f.Add(bytes.Repeat([]byte{0xff}, n), uint16(n/3), uint16(n/2))
	}

	f.Fuzz(func(t *testing.T, b []byte, i, j uint16) {
		want := SumULTRIX(b)
		if got := SumOptimized(b); got != want {
			t.Fatalf("SumOptimized = %#x, SumULTRIX = %#x", got, want)
		}
		dst := make([]byte, len(b))
		if got := CopyAndSum(dst, b); got != want || !bytes.Equal(dst, b) {
			t.Fatalf("CopyAndSum = %#x (copied ok: %v), SumULTRIX = %#x", got, bytes.Equal(dst, b), want)
		}
		lo, hi := int(i)%(len(b)+1), int(j)%(len(b)+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		if viaAdd, viaCombine := splitSums(b, lo, hi); viaAdd != want || viaCombine != want {
			t.Fatalf("split at %d,%d: Add %#x, Combine %#x, one-shot %#x", lo, hi, viaAdd, viaCombine, want)
		}
	})
}
