package atm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestCRC10SlicedMatchesBitwise holds the CRC-10 kernel — one table
// lookup a byte position (crc10PDU) — to the bit-at-a-time reference over
// the bits the CRC covers: on every single-bit PDU, which is what the
// table is built from, then on random and all-ones PDUs.
func TestCRC10SlicedMatchesBitwise(t *testing.T) {
	check := func(what string, p *[PayloadSize]byte) {
		t.Helper()
		if got, want := crc10PDU(p), crc10Bitwise(p[:], crcBits); got != want {
			t.Fatalf("%s: crc10PDU = %#x, bitwise reference %#x", what, got, want)
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

// validCell returns the first cell of a multi-cell datagram of random
// bytes: a BOM whose payload, length indicator and CRC-10 are all valid.
func validCell(seed uint64) Cell {
	data := make([]byte, 200)
	sim.NewRNG(seed).Fill(data)
	seg := Segmenter{VCI: DefaultVCI}
	return seg.Segment(data)[0]
}

// crcVerdictBitwise is Push's CRC check restated on the reference: the
// stored CRC equals the bitwise CRC of the bits ahead of it.
func crcVerdictBitwise(c *Cell) bool {
	p := (*[PayloadSize]byte)(c.Payload())
	stored := uint16(p[46]&0x3)<<8 | uint16(p[47])
	return crc10Bitwise(p[:], crcBits) == stored
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

// FuzzCRC10Sliced holds the CRC-10 kernel to the bitwise reference on
// arbitrary PDUs — the input's first 48 bytes, zero padded — and Push's
// in-place CRC verdict on the same PDU as a cell.
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
		if got, want := crc10PDU(p), crc10Bitwise(p[:], crcBits); got != want {
			t.Fatalf("crc10PDU = %#x, bitwise reference %#x", got, want)
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

// TestCRC10FlagsEveryShortBurst holds the receive check a reassembler
// makes — crc10PDU against the ten CRC bits the SAR-PDU carries — to
// the detection a CRC of degree 10 guarantees, on valid PDUs of several
// frames: it flags every single-bit flip of the 384, and every burst of 2
// to 10 bits inside the PDU, each of whose end bits is flipped, in every
// pattern of the bits between.
func TestCRC10FlagsEveryShortBurst(t *testing.T) {
	flagged := func(p *[PayloadSize]byte) bool {
		return crc10PDU(p) != uint16(p[46]&0x3)<<8|uint16(p[47])
	}
	for seed := uint64(1); seed <= 3; seed++ {
		c := validCell(seed)
		p := (*[PayloadSize]byte)(c.Payload())
		if flagged(p) {
			t.Fatalf("seed %d: a valid PDU is flagged", seed)
		}
		for length := 1; length <= 10; length++ {
			for start := 0; start+length <= PayloadSize*8; start++ {
				// Bits between the burst's two ends take every pattern.
				for mid := 0; mid < 1<<max(length-2, 0); mid++ {
					burst := 1 | 1<<(length-1) | mid<<1
					q := *p
					for i := 0; i < length; i++ {
						if burst>>i&1 == 1 {
							bit := start + i
							q[bit/8] ^= 0x80 >> (bit % 8)
						}
					}
					if !flagged(&q) {
						t.Fatalf("seed %d: a %d-bit burst from bit %d (pattern %b) passes the CRC-10", seed, length, start, burst)
					}
				}
			}
		}
	}
}

// TestHECFlagsEverySingleBitFlip holds the header check a driver or a
// switch makes to flag every single-bit flip of the five header bytes,
// the HEC byte's own included, on headers across the VCI range.
func TestHECFlagsEverySingleBitFlip(t *testing.T) {
	for _, h := range []CellHeader{{VCI: DefaultVCI}, {VCI: 0xffff, VPI: 0xff, GFC: 0xf, PT: 7, CLP: true}, {VCI: 1234, VPI: 5}} {
		var c Cell
		h.Marshal(&c)
		if _, err := ParseHeader(&c); err != nil {
			t.Fatalf("%+v: a valid header is refused: %v", h, err)
		}
		for bit := 0; bit < 5*8; bit++ {
			q := c
			q[bit/8] ^= 0x80 >> (bit % 8)
			if _, err := ParseHeader(&q); err == nil {
				t.Errorf("%+v: a flip of header bit %d passes the HEC", h, bit)
			}
		}
	}
}
