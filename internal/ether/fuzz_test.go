package ether

import (
	"bytes"
	"testing"
)

// FuzzFrameRoundTrip holds the frame codec to its contract on arbitrary
// fields. Both ways of building a frame — Encapsulate, and the driver's
// seal in place over a dirty buffer — give the same bytes; Decapsulate
// gives back the type and the payload, zero-padded to the minimum; the
// table-driven FCS agrees with the bit-at-a-time reference; a frame with
// any one bit flipped is rejected; and a truncated frame never panics, is
// rejected when it is a runt, and otherwise gets the verdict the
// reference CRC gives it.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 1}, uint16(EtherTypeIPv4), []byte("hello ethernet"), uint32(0), uint16(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(0x86dd), bytes.Repeat([]byte{0xdb}, MinPayload), uint32(113), uint16(60))
	f.Add([]byte{}, uint16(0), []byte{}, uint32(511), uint16(63))
	f.Add([]byte{1, 2, 3}, uint16(0xffff), bytes.Repeat([]byte{0xa5, 0x5a}, MTU/2), uint32(12143), uint16(1517))
	f.Fuzz(func(t *testing.T, addrs []byte, etherType uint16, payload []byte, flip uint32, cut uint16) {
		var dst, src [6]byte
		if n := copy(dst[:], addrs); n == len(dst) {
			copy(src[:], addrs[n:])
		}
		if len(payload) > MTU {
			payload = payload[:MTU]
		}
		n := len(payload)

		fr := Encapsulate(dst, src, etherType, payload)
		if len(fr) != frameLen(n) {
			t.Fatalf("frame of %d bytes for a %d-byte payload, want %d", len(fr), n, frameLen(n))
		}
		sealed := Frame(bytes.Repeat([]byte{0xDB}, frameLen(n)))
		copy(sealed[HeaderLen:], payload)
		sealed.seal(dst, src, etherType, n)
		if !bytes.Equal(fr, sealed) {
			t.Fatalf("sealed in place:\n%x\nEncapsulate:\n%x", sealed, fr)
		}

		want := payload
		if n < MinPayload {
			want = append(make([]byte, 0, MinPayload), payload...)[:MinPayload]
		}
		got, gotType, ok := Decapsulate(fr)
		if !ok || gotType != etherType || !bytes.Equal(got, want) {
			t.Fatalf("round trip: ok=%v type %#x (want %#x), payload %d bytes (want %d) equal=%v",
				ok, gotType, etherType, len(got), len(want), bytes.Equal(got, want))
		}
		if !bytes.Equal(fr[0:6], dst[:]) || !bytes.Equal(fr[6:12], src[:]) {
			t.Fatal("addresses not at the head of the frame")
		}
		body := fr[:len(fr)-FCSLen]
		if fcs(body) != fcsBitwise(body) {
			t.Fatalf("fcs %#x, bitwise reference %#x", fcs(body), fcsBitwise(body))
		}

		bit := int(flip) % (len(fr) * 8)
		fr[bit/8] ^= 1 << (bit % 8)
		if _, _, ok := Decapsulate(fr); ok {
			t.Fatalf("bit %d flipped and the frame still verified", bit)
		}
		fr[bit/8] ^= 1 << (bit % 8)

		short := fr[:int(cut)%len(fr)]
		_, _, ok = Decapsulate(short)
		verdict := false
		if len(short) >= HeaderLen+MinPayload+FCSLen {
			tail := short[len(short)-FCSLen:]
			c := fcsBitwise(short[:len(short)-FCSLen])
			verdict = bytes.Equal(tail, []byte{byte(c >> 24), byte(c >> 16), byte(c >> 8), byte(c)})
		}
		if ok != verdict {
			t.Fatalf("frame cut to %d bytes: Decapsulate says %v, the reference CRC %v", len(short), ok, verdict)
		}
	})
}
