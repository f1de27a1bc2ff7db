package atm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestCRC10SlicedMatchesBitwise holds the CRC-10 kernel — one table
// lookup a byte position (crc10PDU) — and its receive form (crc10Masked,
// the CRC bits taken as zero) to the bit-at-a-time reference: on every
// single-bit PDU, which is what the table is built from, then on random
// and all-ones PDUs.
func TestCRC10SlicedMatchesBitwise(t *testing.T) {
	check := func(what string, p *[PayloadSize]byte) {
		t.Helper()
		if got, want := crc10PDU(p), crc10Bitwise(0, p[:]); got != want {
			t.Fatalf("%s: crc10PDU = %#x, bitwise reference %#x", what, got, want)
		}
		if got, want := crc10Masked(p), maskedBitwise(p); got != want {
			t.Fatalf("%s: crc10Masked = %#x, bitwise reference %#x", what, got, want)
		}
	}
	var p [PayloadSize]byte
	for bit := 0; bit < PayloadSize*8; bit++ {
		p[bit/8] = 0x80 >> (bit % 8)
		check(fmt.Sprintf("single bit %d", bit), &p)
		p[bit/8] = 0
	}
	rng := sim.NewRNG(15)
	for round := 0; round < 64; round++ {
		rng.Fill(p[:])
		if round == 0 {
			for i := range p {
				p[i] = 0xff
			}
		}
		check(fmt.Sprintf("round %d", round), &p)
	}
}

// maskedBitwise is the receive form on the reference: the bitwise CRC
// of the PDU with its ten CRC bits zeroed.
func maskedBitwise(p *[PayloadSize]byte) uint16 {
	tmp := *p
	tmp[46] &^= 0x3
	tmp[47] = 0
	return crc10Bitwise(0, tmp[:])
}

// validCell returns the first cell of a multi-cell datagram of random
// bytes: a BOM whose payload, length indicator and CRC-10 are all valid.
func validCell(seed uint64) Cell {
	data := make([]byte, 200)
	sim.NewRNG(seed).Fill(data)
	seg := Segmenter{VCI: DefaultVCI}
	return seg.Segment(data)[0]
}

// crcVerdictBitwise is Push's CRC check restated on the reference: the
// stored CRC equals the bitwise CRC of the payload with the field zeroed.
func crcVerdictBitwise(c *Cell) bool {
	p := (*[PayloadSize]byte)(c.Payload())
	stored := uint16(p[46]&0x3)<<8 | uint16(p[47])
	return maskedBitwise(p) == stored
}

// pushRejectsCRC pushes c into a fresh reassembler and reports whether
// it was discarded for its CRC. Push verifies in place, without a scratch
// copy of the payload, so it must also leave the cell as it found it.
func pushRejectsCRC(t *testing.T, c *Cell) bool {
	t.Helper()
	before := *c
	var r Reassembler
	_, err := r.Push(c)
	if *c != before {
		t.Fatal("Push modified the cell it verified")
	}
	var re *ReassemblyError
	return errors.As(err, &re) && re.Reason == "CRC-10 mismatch"
}

// TestPushRejectsEverySingleBitCorruption: CRC-10 detects every
// single-bit error, wherever in the 48 payload bytes it lands — SAR
// header, data, length indicator, or the CRC field itself.
func TestPushRejectsEverySingleBitCorruption(t *testing.T) {
	c := validCell(16)
	if pushRejectsCRC(t, &c) {
		t.Fatal("uncorrupted cell rejected")
	}
	for bit := 0; bit < PayloadSize*8; bit++ {
		bad := c
		bad.Payload()[bit/8] ^= 0x80 >> (bit % 8)
		if !pushRejectsCRC(t, &bad) {
			t.Fatalf("flip of payload byte %d bit %d accepted", bit/8, bit%8)
		}
	}
}

// FuzzCRC10Sliced holds the CRC-10 kernel and its receive form to the
// bitwise reference on arbitrary PDUs — the input's first 48 bytes, zero
// padded — and Push's in-place CRC verdict on the same PDU as a cell.
func FuzzCRC10Sliced(f *testing.F) {
	valid := validCell(17)
	f.Add(valid.Payload())
	for _, bit := range []int{46*8 + 6, 46*8 + 7, 47 * 8, 47*8 + 7} { // the CRC field's edges
		flipped := valid
		flipped.Payload()[bit/8] ^= 0x80 >> (bit % 8)
		f.Add(flipped.Payload())
	}
	f.Add(bytes.Repeat([]byte{0xff}, PayloadSize))
	f.Add(bytes.Repeat([]byte{0xff}, 131))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		var c Cell
		copy(c.Payload(), b)
		p := (*[PayloadSize]byte)(c.Payload())
		if got, want := crc10PDU(p), crc10Bitwise(0, p[:]); got != want {
			t.Fatalf("crc10PDU = %#x, bitwise reference %#x", got, want)
		}
		if got, want := crc10Masked(p), maskedBitwise(p); got != want {
			t.Fatalf("crc10Masked = %#x, bitwise reference %#x", got, want)
		}
		if got, want := pushRejectsCRC(t, &c), !crcVerdictBitwise(&c); got != want {
			t.Fatalf("Push rejected for CRC = %v, bitwise reference says %v", got, want)
		}
	})
}

// TestPushRejectsWithoutAllocating pushes cells a lossy or corrupting
// link delivers — a continuation whose frame's first cell was lost, a
// cell with a flipped bit — and requires each reject to name its reason
// and allocate nothing: a lossy link rejects a cell for every one lost.
func TestPushRejectsWithoutAllocating(t *testing.T) {
	data := make([]byte, 200)
	seg := Segmenter{VCI: DefaultVCI}
	cells := seg.Segment(data)
	flipped := cells[0]
	flipped.Payload()[10] ^= 0x04
	for _, tc := range []struct {
		c      *Cell
		reason string
	}{
		{&cells[1], "continuation without beginning"},
		{&flipped, "CRC-10 mismatch"},
	} {
		var r Reassembler
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			r.Reset()
			_, err = r.Push(tc.c)
		})
		var re *ReassemblyError
		if !errors.As(err, &re) || re.Reason != tc.reason {
			t.Errorf("Push returned %v, want a %q reject", err, tc.reason)
		}
		if allocs != 0 {
			t.Errorf("a %q reject allocates %v times, want 0", tc.reason, allocs)
		}
	}
}
