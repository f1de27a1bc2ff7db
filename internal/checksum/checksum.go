// Package checksum implements the Internet (RFC 1071) one's-complement
// checksum in the three styles the paper compares (§4.1):
//
//   - SumULTRIX: the straightforward halfword-at-a-time loop used by
//     ULTRIX 4.2A.
//   - SumOptimized: the word-accumulating, unrolled loop the paper (and
//     Kay & Pasquale) propose, which eliminates halfword accesses.
//   - CopyAndSum: the integrated copy-and-checksum that touches each byte
//     once, the basis of the paper's combined kernel path (§4.1.1).
//
// All three produce identical sums. What the paper compares — their
// memory access patterns on the DECstation — is what cost.Model prices;
// simulated time never depends on how fast this package runs on the
// host. Host-side, SumOptimized, CopyAndSum and Partial.Add therefore
// share one core (sumWide, eight bytes an add): they are on every
// simulated packet's path and only their result matters. SumULTRIX stays
// the literal halfword loop: it is the paper's baseline, what Table 5's
// validation runs beside the others, and the independent reference the
// tests hold the wide core to.
//
// The package also provides Partial, the incremental partial-sum type the
// combined kernel path needs: the socket layer checksums each chunk as it
// is copied into an mbuf and TCP later folds the per-mbuf partial sums
// into a segment checksum (the paper stores partial checksums in the mbuf
// header).
package checksum

import (
	"encoding/binary"
	"math/bits"
)

// Fold reduces a 32-bit intermediate sum to 16 bits by repeatedly adding
// the carries back in, per RFC 1071.
func Fold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return uint16(sum)
}

// SumULTRIX computes the one's-complement sum of b (not complemented),
// processing one big-endian halfword per iteration exactly as the ULTRIX
// in_cksum inner loop does. An odd trailing byte is padded with a zero low
// byte.
func SumULTRIX(b []byte) uint16 {
	var sum uint32
	i := 0
	for ; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if i < len(b) {
		sum += uint32(b[i]) << 8
	}
	return Fold(sum)
}

// sumWide is the one host-side core behind SumOptimized, CopyAndSum and
// Partial.Add: the one's-complement sum of b (not complemented, an odd
// trailing byte padded with a zero low byte), eight bytes an add.
//
// One's-complement addition is associative and 2^16 ≡ 1 (mod 0xffff), so
// a big-endian 64-bit word is four halfwords already lined up in their
// lanes: summing words with end-around carry and folding 64 → 16 bits at
// the end gives bit for bit the halfword loop's result, zero included (an
// end-around add of non-zero words is never zero). Within a block the
// carry is threaded through bits.Add64, which the compiler lowers to an
// add-with-carry chain; each block's carry-out is counted aside instead of
// being fed to the next block, which keeps the flag out of the loop-carried
// dependency, and the count is wrapped back in once after the loops.
func sumWide(b []byte) uint16 {
	var s, c, carries uint64
	for len(b) >= 32 {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b), 0)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b[8:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b[16:]), c)
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b[24:]), c)
		carries += c
		b = b[32:]
	}
	for len(b) >= 8 {
		s, c = bits.Add64(s, binary.BigEndian.Uint64(b), 0)
		carries += c
		b = b[8:]
	}
	if len(b) > 0 {
		// The last 1..7 bytes, left-justified in a zero-padded word: the
		// blocks above consumed a multiple of 8, so the lanes still line up.
		var w uint64
		for i, v := range b {
			w |= uint64(v) << (56 - 8*uint(i))
		}
		s, c = bits.Add64(s, w, 0)
		carries += c
	}
	s, c = bits.Add64(s, carries, 0)
	s += c
	s = s>>32 + s&0xffffffff // at most 2^33-2
	s = s>>32 + s&0xffffffff // fits 32 bits
	return Fold(uint32(s))
}

// SumOptimized computes the same one's-complement sum with the unrolled,
// word-accumulating loop (the optimization of §4.1). The result is always
// identical to SumULTRIX; only the access pattern differs.
func SumOptimized(b []byte) uint16 { return sumWide(b) }

// CopyAndSum copies src into dst and returns the one's-complement sum of
// the bytes, the paper's integrated copy-and-checksum (§4.1.1). dst must
// be at least as long as src.
func CopyAndSum(dst, src []byte) uint16 {
	if len(dst) < len(src) {
		panic("checksum: CopyAndSum destination too short")
	}
	copy(dst, src)
	return sumWide(src)
}

// Checksum returns the Internet checksum of b: the one's complement of the
// one's-complement sum, as stored in IP/TCP header checksum fields.
func Checksum(b []byte) uint16 { return ^SumOptimized(b) }

// Verify reports whether a byte range that includes its own checksum field
// sums to the all-ones value, i.e. the data is intact.
func Verify(b []byte) bool { return SumOptimized(b) == 0xffff }

// Partial is an incremental one's-complement sum that tracks byte parity,
// so chunks of any length — including odd lengths, which occur whenever an
// mbuf holds an odd number of bytes — can be appended or combined and
// still yield exactly the sum of the concatenated data.
type Partial struct {
	sum uint32
	odd bool // total bytes added so far is odd
}

// Add appends the bytes of b to the running sum.
func (p *Partial) Add(b []byte) {
	i := 0
	if p.odd && len(b) > 0 {
		// The dangling high byte from the previous chunk pairs with
		// b[0] as its low byte; the high byte was already added.
		p.sum += uint32(b[0])
		i = 1
		p.odd = false
	}
	// From here b[i:] starts at even parity: its sum is the one-shot sum,
	// and an odd length leaves its last byte dangling as a high byte.
	p.sum += uint32(sumWide(b[i:]))
	if (len(b)-i)%2 == 1 {
		p.odd = true
	}
	// Keep the accumulator from ever overflowing 32 bits.
	if p.sum >= 0xffff0000 {
		p.sum = uint32(Fold(p.sum))
	}
}

// AddWord appends a big-endian 16-bit word. It must only be used at even
// byte parity (it panics otherwise), which is how the pseudo-header fields
// are summed.
func (p *Partial) AddWord(w uint16) {
	if p.odd {
		panic("checksum: AddWord at odd offset")
	}
	p.sum += uint32(w)
}

// Combine appends another partial sum as if its underlying bytes followed
// p's. If p currently ends at an odd offset, q's sum is byte-swapped, the
// standard trick for combining checksums computed at different alignments.
func (p *Partial) Combine(q Partial) {
	s := Fold(q.sum)
	if p.odd {
		s = s>>8 | s<<8
	}
	p.sum += uint32(s)
	p.odd = p.odd != q.odd
	if p.sum >= 0xffff0000 {
		p.sum = uint32(Fold(p.sum))
	}
}

// Sum16 returns the folded (not complemented) 16-bit sum so far.
func (p *Partial) Sum16() uint16 { return Fold(p.sum) }

// Checksum returns the complemented checksum of everything added so far.
func (p *Partial) Checksum() uint16 { return ^Fold(p.sum) }

// Odd reports whether an odd number of bytes has been added.
func (p *Partial) Odd() bool { return p.odd }

// TCPPseudo returns a Partial primed with the TCP pseudo-header for the
// given source and destination IPv4 addresses and TCP segment length
// (header + payload), per RFC 793.
func TCPPseudo(src, dst uint32, tcpLen int) Partial {
	var p Partial
	p.AddWord(uint16(src >> 16))
	p.AddWord(uint16(src))
	p.AddWord(uint16(dst >> 16))
	p.AddWord(uint16(dst))
	p.AddWord(6) // protocol number: TCP
	p.AddWord(uint16(tcpLen))
	return p
}
