package atm

import (
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

// crc10Pos drives the CRC-10 of a SAR-PDU, the only length either end
// computes one over: entry [i][v] is the CRC of the 48-byte PDU that holds
// byte v at position i and zeros elsewhere. The CRC (from a zero state) is
// linear over GF(2), so a PDU's is the XOR of its 48 bytes' entries —
// independent lookups, with no state carried from one byte to the next.
// The table is filled once at init, by the same linearity, from the
// bitwise reference (crc10Bitwise) on the 384 single-bit PDUs; the tests
// hold every entry, and arbitrary PDUs, to that reference. The CRC covers
// the crcBits ahead of its own field, so the field's entries are zero and
// a PDU's CRC does not depend on what its field holds.
var crc10Pos [PayloadSize][256]uint16

// crcBits is how many bits of a SAR-PDU its CRC-10 covers: the SAR
// header, the payload and the length indicator — all but the CRC field,
// its last ten (ITU-T I.363: the remainder of x^10 times those bits,
// divided by the generator).
const crcBits = PayloadSize*8 - 10

func init() {
	var pdu [PayloadSize]byte
	for i := range crc10Pos {
		for bit := 0; bit < 8; bit++ {
			pdu[i] = 1 << bit
			r := crc10Bitwise(pdu[:], crcBits)
			pdu[i] = 0
			for v := 0; v < 256; v++ {
				if v&(1<<bit) != 0 {
					crc10Pos[i][v] ^= r
				}
			}
		}
	}
}

// crc10Bitwise is the reference AAL3/4 CRC-10 (polynomial
// x^10+x^9+x^5+x^4+x+1, 0x633) of the first n bits of b, one bit at a
// time, the most significant bit of each byte first.
func crc10Bitwise(b []byte, n int) uint16 {
	var crc uint16
	for i := 0; i < n; i++ {
		in := uint16(b[i/8]>>(7-i%8)) & 1
		crc <<= 1
		if crc>>10^in != 0 {
			crc ^= 0x233
		}
		crc &= 0x3ff
	}
	return crc
}

// crc10PDU computes the AAL3/4 CRC-10 of a 48-byte SAR-PDU, whatever its
// CRC field holds: one lookup a byte, written out so that every index is
// a constant and nothing is bounds-checked, in two XOR chains (the even
// eight-byte words and the odd).
func crc10PDU(p *[PayloadSize]byte) uint16 {
	t := &crc10Pos
	even := t[0][p[0]] ^ t[1][p[1]] ^ t[2][p[2]] ^ t[3][p[3]] ^
		t[4][p[4]] ^ t[5][p[5]] ^ t[6][p[6]] ^ t[7][p[7]] ^
		t[16][p[16]] ^ t[17][p[17]] ^ t[18][p[18]] ^ t[19][p[19]] ^
		t[20][p[20]] ^ t[21][p[21]] ^ t[22][p[22]] ^ t[23][p[23]] ^
		t[32][p[32]] ^ t[33][p[33]] ^ t[34][p[34]] ^ t[35][p[35]] ^
		t[36][p[36]] ^ t[37][p[37]] ^ t[38][p[38]] ^ t[39][p[39]]
	odd := t[8][p[8]] ^ t[9][p[9]] ^ t[10][p[10]] ^ t[11][p[11]] ^
		t[12][p[12]] ^ t[13][p[13]] ^ t[14][p[14]] ^ t[15][p[15]] ^
		t[24][p[24]] ^ t[25][p[25]] ^ t[26][p[26]] ^ t[27][p[27]] ^
		t[28][p[28]] ^ t[29][p[29]] ^ t[30][p[30]] ^ t[31][p[31]] ^
		t[40][p[40]] ^ t[41][p[41]] ^ t[42][p[42]] ^ t[43][p[43]] ^
		t[44][p[44]] ^ t[45][p[45]] ^ t[46][p[46]] ^ t[47][p[47]]
	return even ^ odd
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
	// SAR trailer: LI(6) CRC10(10), the CRC covering every bit ahead
	// of it.
	p[46] = byte(li) << 2
	crc := crc10PDU((*[PayloadSize]byte)(p))
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
	// Validate the CRC-10: recompute it over the bits it covers, the
	// cell untouched, and compare against the stored value.
	stored := uint16(p[46]&0x3)<<8 | uint16(p[47])
	if crc10PDU((*[PayloadSize]byte)(p)) != stored {
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
