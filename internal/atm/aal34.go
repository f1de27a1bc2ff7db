package atm

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// AAL3/4 segmentation and reassembly, the adaptation layer the paper's
// driver and adapter implement ("the ATM driver and adapter implement the
// Class 3/4 ATM Adaptation Layer (AAL), which is responsible for all
// segmentation and reassembly of datagrams and the detection of
// transmission errors and dropped cells", §1.1).
//
// Each 48-byte SAR-PDU is: 2 bytes of header (segment type, sequence
// number, multiplexing ID), 44 bytes of payload, 2 bytes of trailer
// (length indicator, CRC-10). The CPCS-PDU wraps the user datagram in a
// 4-byte header (CPI, Btag, BASize) and 4-byte trailer (AL, Etag, Length),
// padded to a 4-byte boundary.

// Segment types in the SAR header.
const (
	segBOM = 0x2 // beginning of message
	segCOM = 0x0 // continuation of message
	segEOM = 0x1 // end of message
	segSSM = 0x3 // single-segment message
)

// SARPayload is the per-cell AAL3/4 payload capacity.
const SARPayload = 44

// cpcsOverhead is the CPCS-PDU header plus trailer.
const cpcsOverhead = 8

// MaxDatagram is the largest user datagram AAL3/4 will carry here. The
// TCA-100's MTU is just over 9 KB ("also close to our ATM MTU of 9K").
const MaxDatagram = 9188

// crc10Tables drives the slicing-by-8 CRC-10: entry [k][v] is the bitwise
// CRC of the byte v followed by k zero bytes, so the CRC of an 8-byte
// block is eight independent lookups XORed together instead of eight
// dependent ones. [0] alone is the classic byte-at-a-time table, which
// the tail uses. All eight are filled once at init from the bitwise
// reference (crc10Bitwise), which the tests also compare against — the
// sliced form computes identical values, it only takes the per-bit and
// per-byte dependency chains out of the twice-per-cell hot path.
var crc10Tables [8][256]uint16

func init() {
	var msg [8]byte
	for k := range crc10Tables {
		for v := 0; v < 256; v++ {
			msg[0] = byte(v)
			crc10Tables[k][v] = crc10Bitwise(0, msg[:k+1])
		}
	}
}

// crc10Bitwise is the reference AAL3/4 CRC-10 (polynomial
// x^10+x^9+x^5+x^4+x+1, 0x633), one bit at a time, continuing from crc.
func crc10Bitwise(crc uint16, b []byte) uint16 {
	for _, v := range b {
		crc ^= uint16(v) << 2
		for i := 0; i < 8; i++ {
			if crc&0x200 != 0 {
				crc = crc<<1 ^ 0x233
			} else {
				crc <<= 1
			}
		}
		crc &= 0x3ff
	}
	return crc
}

// crc10Word advances crc over the eight bytes of the big-endian word w.
// The CRC is linear, so continuing from a state is the same as starting
// from zero with the state XORed into the message's first ten bits — the
// first byte and the top two bits of the second.
func crc10Word(crc uint16, w uint64) uint16 {
	w ^= uint64(crc) << 54
	return crc10Tables[7][w>>56] ^ crc10Tables[6][w>>48&0xff] ^
		crc10Tables[5][w>>40&0xff] ^ crc10Tables[4][w>>32&0xff] ^
		crc10Tables[3][w>>24&0xff] ^ crc10Tables[2][w>>16&0xff] ^
		crc10Tables[1][w>>8&0xff] ^ crc10Tables[0][w&0xff]
}

// crc10 computes the AAL3/4 CRC-10 over b: eight bytes a step, then a
// byte-at-a-time tail. A 48-byte SAR-PDU is six steps and no tail.
func crc10(b []byte) uint16 {
	var crc uint16
	for ; len(b) >= 8; b = b[8:] {
		crc = crc10Word(crc, binary.BigEndian.Uint64(b))
	}
	for _, v := range b {
		crc = (crc&0x3)<<8 ^ crc10Tables[0][(crc>>2)^uint16(v)]
	}
	return crc
}

// CellsForDatagram returns how many cells a datagram of n bytes occupies
// after CPCS encapsulation, the quantity the driver's per-cell costs
// scale with.
func CellsForDatagram(n int) int {
	padded := (n + 3) &^ 3
	total := padded + cpcsOverhead
	return (total + SARPayload - 1) / SARPayload
}

// Segmenter turns datagrams into cells on one virtual channel. It holds
// the channel's on-wire state only and owns no memory: the CPCS-PDU it
// cuts cells from is the caller's. SegmentAppend builds it on its own
// stack, so segmentation does not allocate; the driver, which holds a
// PDU across the FIFO stalls of one Output, checks its own out of the
// event loop's arena and drives frame and cell directly.
type Segmenter struct {
	VCI  uint16
	MID  uint16
	btag uint8
	sn   uint8

	// hdr is the cell header every cell of the current PDU carries,
	// marshaled (HEC included) once by frame.
	hdr [CellSize - PayloadSize]byte
}

// Reset rewinds the segmenter's Btag and sequence counters to their
// initial values for testbed reuse. A reused channel must emit
// bit-identical cells to a fresh one: the Btag and SAR sequence numbers
// are on the wire, and resetting them is what keeps a recycled testbed's
// cell stream indistinguishable from a new testbed's.
func (s *Segmenter) Reset() {
	s.btag = 0
	s.sn = 0
}

// Segment encapsulates data in a CPCS-PDU and returns its cells in
// transmission order, in freshly allocated storage the caller owns.
// Every call uses a fresh Btag so that interleaved or lost frames cannot
// be spliced together undetected.
func (s *Segmenter) Segment(data []byte) []Cell {
	return s.SegmentAppend(nil, data)
}

// SegmentAppend appends the datagram's cells to dst and returns the
// extended slice. Passing a recycled dst (length zero, retained
// capacity) makes steady-state segmentation allocation-free.
func (s *Segmenter) SegmentAppend(dst []Cell, data []byte) []Cell {
	// The PDU's bytes never escape: each cell payload is copied out.
	var buf [maxPDU]byte
	pdu := buf[:pduLen(len(data))]
	copy(pdu[cpcsHeader:], data)
	n := s.frame(pdu, len(data))
	base := len(dst)
	// Every byte of every cell is written by cell, so the new cells need
	// no zeroing.
	dst = slices.Grow(dst, n)[:base+n]
	for i := 0; i < n; i++ {
		s.cell(&dst[base+i], pdu, i, n)
	}
	return dst
}

// cpcsHeader is the CPCS-PDU header length: the datagram starts here.
const cpcsHeader = 4

// maxPDU is the longest CPCS-PDU a conforming sender makes.
const maxPDU = (MaxDatagram+3)&^3 + cpcsOverhead

// pduLen returns the CPCS-PDU length for a datagram of n bytes: header,
// the datagram padded to a 4-byte boundary, trailer.
func pduLen(n int) int {
	if n > MaxDatagram {
		panic(fmt.Sprintf("atm: datagram of %d bytes exceeds AAL3/4 maximum %d", n, MaxDatagram))
	}
	return (n+3)&^3 + cpcsOverhead
}

// frame completes the CPCS-PDU around the n datagram bytes the caller
// has placed at pdu[cpcsHeader:] — header, zeroed alignment pad, trailer,
// under a fresh Btag — and returns how many cells it makes; len(pdu) must
// be pduLen(n). The cells are then cut with cell, in order.
func (s *Segmenter) frame(pdu []byte, n int) int {
	s.btag++
	padded := len(pdu) - cpcsOverhead
	// CPCS header: CPI, Btag, BASize.
	pdu[0] = 0
	pdu[1] = s.btag
	pdu[2] = byte(padded >> 8)
	pdu[3] = byte(padded)
	// Zero the alignment padding explicitly: the buffer may hold bytes of
	// an earlier datagram, and the pad must go out as zeros.
	for i := cpcsHeader + n; i < len(pdu)-4; i++ {
		pdu[i] = 0
	}
	// CPCS trailer: AL, Etag, Length.
	t := pdu[len(pdu)-4:]
	t[0] = 0
	t[1] = s.btag
	t[2] = byte(n >> 8)
	t[3] = byte(n)

	var hdr Cell
	CellHeader{VCI: s.VCI, PT: 0}.Marshal(&hdr)
	copy(s.hdr[:], hdr[:])
	return (len(pdu) + SARPayload - 1) / SARPayload
}

// cell writes cell i of the n that frame counted for pdu into c, every
// byte of it. Cells must be cut in order, each once: the SAR sequence
// number advances per call.
func (s *Segmenter) cell(c *Cell, pdu []byte, i, n int) {
	st := byte(segCOM)
	switch {
	case n == 1:
		st = segSSM
	case i == 0:
		st = segBOM
	case i == n-1:
		st = segEOM
	}
	chunk := pdu[i*SARPayload:]
	li := SARPayload
	if len(chunk) < SARPayload {
		li = len(chunk)
	} else {
		chunk = chunk[:SARPayload]
	}
	copy(c[:], s.hdr[:])
	p := c.Payload()
	// SAR header: ST(2) SN(4) MID(10).
	p[0] = st<<6 | (s.sn&0xf)<<2 | byte(s.MID>>8)
	p[1] = byte(s.MID)
	s.sn = (s.sn + 1) & 0xf
	copy(p[2:2+SARPayload], chunk)
	for j := 2 + li; j < 2+SARPayload; j++ {
		p[j] = 0
	}
	// SAR trailer: LI(6) CRC10(10), CRC computed over the payload
	// with the CRC field zeroed.
	p[46] = byte(li) << 2
	p[47] = 0
	crc := crc10(p)
	p[46] |= byte(crc >> 8)
	p[47] = byte(crc)
}

// ReassemblyError describes why a frame was discarded.
type ReassemblyError struct{ Reason string }

func (e *ReassemblyError) Error() string { return "atm: reassembly: " + e.Reason }

// The reasons Push rejects a cell or a frame, one value each: a lossy
// link rejects a cell a frame, so a fresh error per reject would be an
// allocation per lost cell. Callers compare Reason, never the pointer.
var (
	errCRC10         = &ReassemblyError{Reason: "CRC-10 mismatch"}
	errBadLI         = &ReassemblyError{Reason: "bad length indicator"}
	errSeqGap        = &ReassemblyError{Reason: "sequence gap (lost cell)"}
	errNoBeginning   = &ReassemblyError{Reason: "continuation without beginning"}
	errShortPDU      = &ReassemblyError{Reason: "short CPCS-PDU"}
	errTagMismatch   = &ReassemblyError{Reason: "Btag/Etag mismatch"}
	errBASize        = &ReassemblyError{Reason: "BASize mismatch"}
	errLengthTooLong = &ReassemblyError{Reason: "length exceeds PDU"}
)

// Reassembler rebuilds datagrams from cells on one virtual channel. Cells
// from the adapter are pushed in arrival order; a completed datagram or a
// reassembly error is returned when a frame ends.
//
// The buffer a frame reassembles into is checked out of an arena when
// its first cell arrives — sized from the BASize that cell carries, so it
// does not grow — and goes back the moment the frame is abandoned, for
// whatever reason (see release's callers: every one is a way a frame can
// end without being delivered). An idle channel holds no memory. The
// driver's reassemblers use their event loop's arena; the zero
// Reassembler makes a private one, which behaves as a scratch buffer of
// its own.
type Reassembler struct {
	arena  *sim.Arena
	buf    []byte // the CPCS-PDU so far; checked out while non-nil
	active bool
	sn     uint8
	haveSN bool
	// Errors counts discarded frames, the quantity the paper's error
	// discussion (§4.2.1) cares about.
	Errors int64
}

// Reset abandons any partial frame and rewinds the sequence expectation
// and error count for testbed reuse.
func (r *Reassembler) Reset() {
	r.release()
	r.active = false
	r.sn = 0
	r.haveSN = false
	r.Errors = 0
}

// release returns the buffer, if one is held, to the arena.
func (r *Reassembler) release() {
	if r.buf != nil {
		r.arena.Return(r.buf)
		r.buf = nil
	}
}

// Detach hands the caller the buffer behind the datagram Push just
// returned: the datagram then stays valid, whatever happens on the
// channel, until the caller gives the buffer back to the arena (Return).
func (r *Reassembler) Detach() []byte {
	b := r.buf
	r.buf = nil
	return b
}

// Idle reports whether no datagram is partially reassembled, i.e. the
// channel's context can be reclaimed without losing a frame in progress.
func (r *Reassembler) Idle() bool { return !r.active }

// Push processes one cell. It returns (datagram, nil) when a frame
// completes, (nil, error) when a frame is discarded, and (nil, nil) when
// more cells are needed. Detection is real: sequence-number gaps from
// dropped cells, CRC-10 failures from corruption, and Btag/Etag or length
// mismatches from spliced frames all surface here, exactly the failures
// AAL3/4 exists to catch.
//
// The returned datagram lies in the reassembly buffer. It is valid until
// released: until the next frame begins on this Reassembler (or Reset),
// which reuses the buffer — or, once the caller has taken the buffer
// over with Detach, until the caller returns it. The driver detaches, as
// its copy into mbufs spans CPU charges during which the channel may be
// reclaimed; a caller that consumes the datagram at once need not.
func (r *Reassembler) Push(c *Cell) ([]byte, error) {
	p := c.Payload()
	// Validate the CRC-10: recompute over the payload with the CRC bits
	// zeroed — the last word's low ten bits masked in a register, the
	// cell itself untouched — and compare against the stored value.
	//
	// The usual shortcut, "run the CRC over all 48 bytes and expect a
	// zero residue", does not apply to this codec: its CRC is
	// M(x)·x¹⁰ mod G over a payload M that already contains the zeroed
	// ten-bit field, so the stored CRC sits inside M rather than after
	// it and a valid cell does not divide evenly.
	stored := uint16(p[46]&0x3)<<8 | uint16(p[47])
	if crc10Word(crc10(p[:40]), binary.BigEndian.Uint64(p[40:])&^0x3ff) != stored {
		r.drop()
		return nil, errCRC10
	}
	st := p[0] >> 6
	sn := p[0] >> 2 & 0xf
	li := int(p[46] >> 2)
	if li > SARPayload {
		r.drop()
		return nil, errBadLI
	}
	if r.haveSN && sn != (r.sn+1)&0xf {
		r.drop()
		r.sn, r.haveSN = sn, true
		return nil, errSeqGap
	}
	r.sn, r.haveSN = sn, true

	switch st {
	case segBOM, segSSM:
		if r.active {
			r.Errors++ // previous frame never finished
		}
		r.begin(p[2 : 2+li])
		r.active = true
	case segCOM, segEOM:
		if !r.active {
			r.drop()
			return nil, errNoBeginning
		}
	}
	if len(r.buf)+li > cap(r.buf) {
		r.grow(li)
	}
	r.buf = append(r.buf, p[2:2+li]...)
	if st == segEOM || st == segSSM {
		r.active = false
		return r.finish()
	}
	return nil, nil
}

// begin readies the buffer for a frame whose first cell carries first: a
// buffer still held (an unfinished frame, or a delivered one nobody
// detached) goes back, and one big enough for the whole PDU — the BASize
// in the CPCS header says how big — is checked out.
func (r *Reassembler) begin(first []byte) {
	if r.arena == nil {
		r.arena = new(sim.Arena)
	}
	r.release()
	need := SARPayload
	if len(first) >= cpcsHeader {
		if n := (int(first[2])<<8 | int(first[3])) + cpcsOverhead; n <= maxPDU {
			need = n
		}
	}
	r.buf = r.arena.Checkout(need)
}

// grow moves the frame to a buffer with room for li more bytes. Only a
// frame longer than its own BASize gets here (cells of two frames spliced
// by a loss the sequence numbers wrapped around); finish will reject it,
// but until then it reassembles as it always did.
func (r *Reassembler) grow(li int) {
	nb := r.arena.Checkout(2 * (len(r.buf) + li))
	nb = append(nb, r.buf...)
	r.arena.Return(r.buf)
	r.buf = nb
}

// drop abandons any partial frame.
func (r *Reassembler) drop() {
	if r.active {
		r.active = false
		r.release()
	}
	r.Errors++
}

// reject abandons a completed frame that failed validation.
func (r *Reassembler) reject(err *ReassemblyError) ([]byte, error) {
	r.Errors++
	r.release()
	return nil, err
}

// finish validates the completed CPCS-PDU and extracts the datagram.
func (r *Reassembler) finish() ([]byte, error) {
	pdu := r.buf
	if len(pdu) < cpcsOverhead {
		return r.reject(errShortPDU)
	}
	btag := pdu[1]
	baSize := int(pdu[2])<<8 | int(pdu[3])
	t := pdu[len(pdu)-4:]
	etag := t[1]
	length := int(t[2])<<8 | int(t[3])
	if btag != etag {
		return r.reject(errTagMismatch)
	}
	if baSize != len(pdu)-cpcsOverhead {
		return r.reject(errBASize)
	}
	if length > len(pdu)-cpcsOverhead {
		return r.reject(errLengthTooLong)
	}
	return pdu[cpcsHeader : cpcsHeader+length], nil
}
