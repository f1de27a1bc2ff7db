// Package atm implements the ATM substrate of the reproduction: 53-byte
// cells with real header encoding and HEC, the AAL3/4 adaptation layer
// (segmentation and reassembly with BOM/COM/EOM cell types, sequence
// numbers, Btag/Etag and length validation, and a real CRC-10), a model of
// the FORE TCA-100 adapter (36-cell transmit FIFO, 292-cell receive FIFO,
// wire pacing, per-frame receive interrupt), and the network driver that
// connects the adapter to the IP layer.
//
// The paper's ATM rows are produced by this code path: the driver charges
// per-cell and per-frame CPU costs as it moves real bytes through real
// cells, and the adapter's FIFO/wire model supplies the transmission and
// overlap timing.
package atm

import "fmt"

// CellSize is the size of an ATM cell: 5 header + 48 payload bytes.
const CellSize = 53

// PayloadSize is the ATM cell payload (the AAL SAR-PDU).
const PayloadSize = 48

// Cell is one raw ATM cell as it appears on the wire.
type Cell [CellSize]byte

// CellHeader is the decoded 5-byte ATM cell header (UNI format).
type CellHeader struct {
	GFC uint8  // generic flow control (4 bits)
	VPI uint8  // virtual path identifier (8 bits)
	VCI uint16 // virtual channel identifier (16 bits)
	PT  uint8  // payload type (3 bits)
	CLP bool   // cell loss priority
}

// hecTable drives the byte-at-a-time HEC CRC-8; entry v is the bitwise
// CRC of the single byte v (filled at init from hecBitwise, which the
// tests compare against).
var hecTable [256]byte

func init() {
	for v := 0; v < 256; v++ {
		hecTable[v] = hecBitwise([]byte{byte(v)})
	}
}

// hecBitwise is the reference CRC-8 with polynomial x^8+x^2+x+1 (0x07),
// one bit at a time.
func hecBitwise(b []byte) byte {
	var crc byte
	for _, v := range b {
		crc ^= v
		for i := 0; i < 8; i++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// hec computes the ATM Header Error Control byte: CRC-8 over the first
// four header bytes, table-driven.
func hec(b []byte) byte {
	var crc byte
	for _, v := range b[:4] {
		crc = hecTable[crc^v]
	}
	return crc
}

// Marshal encodes the header (computing the HEC) into the cell.
func (h CellHeader) Marshal(c *Cell) {
	c[0] = h.GFC<<4 | h.VPI>>4
	c[1] = h.VPI<<4 | byte(h.VCI>>12)
	c[2] = byte(h.VCI >> 4)
	c[3] = byte(h.VCI)<<4 | h.PT<<1
	if h.CLP {
		c[3] |= 1
	}
	c[4] = hec(c[:4])
}

// ParseHeader decodes and validates the cell header. It returns an error
// if the HEC does not match, which is how header corruption is detected.
func ParseHeader(c *Cell) (CellHeader, error) {
	if hec(c[:4]) != c[4] {
		return CellHeader{}, fmt.Errorf("atm: HEC mismatch")
	}
	var h CellHeader
	h.GFC = c[0] >> 4
	h.VPI = c[0]<<4 | c[1]>>4
	h.VCI = c.vci()
	h.PT = c[3] >> 1 & 0x7
	h.CLP = c[3]&1 != 0
	return h, nil
}

// vci decodes the header's VCI without checking the HEC.
func (c *Cell) vci() uint16 { return uint16(c[1]&0x0f)<<12 | uint16(c[2])<<4 | uint16(c[3])>>4 }

// Payload returns the cell's 48-byte payload region.
func (c *Cell) Payload() []byte { return c[5:] }
