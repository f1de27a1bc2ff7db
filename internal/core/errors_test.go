package core

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/sim"
)

// TestErrorStudy holds the §4.2.1 identities, exactly, on the study's own
// counts: every single-bit flip of the request, one case each.
//   - No flip of a request cell reaches TCP or the application: the HEC
//     catches every header flip and the CRC-10 every SAR-PDU flip, and the
//     echo completes by retransmission.
//   - IP's header checksum catches every flip of the IP header.
//   - With the checksum on, TCP's catches every flip of the segment except
//     the 20 that TCP refuses before verifying it (the destination port
//     and the data offset, TestTCPRefusesBeforeItsChecksum), and nothing
//     corrupt reaches the application.
//   - With it off, every flip of the 1400 payload bytes reaches the
//     application as a corrupt echo.
//   - A case that ends in an error is counted and named.
func TestErrorStudy(t *testing.T) {
	rep, err := fastReport()
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Errors
	t.Log("\n" + r.Render())
	bits := map[string]int{"cells": 33 * 424, "IP header": 160, "TCP header": 160, "TCP payload": 1400 * 8}
	if len(r.Rows) != 2*len(bits) {
		t.Fatalf("%d rows, want %d", len(r.Rows), 2*len(bits))
	}
	errored := 0
	for _, row := range r.Rows {
		c := row.ErrorCounts
		name := row.Region + ", checksum " + checksumLabel(row.Mode)
		if row.Flips != bits[row.Region] {
			t.Errorf("%s: %d flips, want %d", name, row.Flips, bits[row.Region])
		}
		if sum := c.HEC + c.CRC10 + c.AAL + c.IP + c.TCP + c.Unseen + c.Corrupt + c.Errored; sum != row.Flips {
			t.Errorf("%s: the columns add to %d of %d flips", name, sum, row.Flips)
		}
		errored += c.Errored
		var want ErrorCounts
		switch row.Region {
		case "cells": // the five header bytes of each, then its SAR-PDU
			want.HEC, want.CRC10 = 33*40, 33*384
		case "IP header":
			want.IP = row.Flips
		case "TCP header":
			if row.Mode == cost.ChecksumNone {
				continue // what a header field does unchecked is TCP's business
			}
			want.TCP, want.Unseen = 140, 20
		case "TCP payload":
			if row.Mode == cost.ChecksumNone {
				want.Corrupt = row.Flips
			} else {
				want.TCP = row.Flips
			}
		}
		if c != want {
			t.Errorf("%s: %+v, want %+v", name, c, want)
		}
	}
	if errored != len(r.Failed) {
		t.Errorf("%d cases ended in an error, %d named", errored, len(r.Failed))
	}
	// Both are TCP header flips with the checksum off: a segment that
	// reads as a reset, and a window closed with no persist timer to
	// reopen it. A fix to either moves its line.
	wantFailed := []string{
		"controller-flip bit 269, checksum off: tcp: connection timed out",
		"controller-flip bit 273, checksum off: lab: measured 0 of 1 iterations",
	}
	if !slices.Equal(r.Failed, wantFailed) {
		t.Errorf("cases that ended in an error:\n got %+v\nwant %+v", r.Failed, wantFailed)
	}
}

// TestTCPRefusesBeforeItsChecksum names the 20 TCP header flips the
// checksum never sees: tcp_input finds the connection before it verifies
// (the mode is per connection), so a flipped destination port matches no
// connection, and it parses the header first, so a flipped data offset
// that the parser refuses is dropped there. Both drops are silent, and
// the echo completes by retransmission.
func TestTCPRefusesBeforeItsChecksum(t *testing.T) {
	r, err := locateRequest(cost.ChecksumStandard)
	if err != nil {
		t.Fatal(err)
	}
	var tb runner.Testbeds
	var got []int
	for b := 160; b < 320; b++ {
		o, err := runFlips(&tb, cost.ChecksumStandard, r.flip(sim.FaultControllerFlip, b))
		if err != nil {
			t.Fatalf("bit %d: %v", b, err)
		}
		if o != caughtTCP {
			got = append(got, b-160)
		}
	}
	var want []int
	for b := 2 * 8; b < 4*8; b++ { // the destination port
		want = append(want, b)
	}
	want = append(want, 12*8, 12*8+1, 12*8+2, 12*8+3) // the data offset
	if !slices.Equal(got, want) {
		t.Errorf("TCP header bits the checksum did not catch: %v, want %v", got, want)
	}
}

// flipEchoEnd is when the study's unflipped echo returns under each mode:
// the span FuzzFlip places its flips in.
var flipEchoEnd = sync.OnceValue(func() [3]sim.Time {
	var end [3]sim.Time
	for _, mode := range []cost.ChecksumMode{cost.ChecksumStandard, cost.ChecksumNone} {
		res, err := lab.New(lab.Config{Link: lab.LinkATM, Mode: mode, Seed: errorSeed}).RunEcho(errorSize, 1, 0)
		if err != nil {
			panic(err)
		}
		end[mode] = res.Windows[0].ReadReturn
	}
	return end
})

// FuzzFlip runs the study's echo under one arbitrary flip: either kind,
// on either host, at any bit, under either checksum mode, at any time
// inside the unflipped echo. Every run ends with the echo back or with a
// named error — never a panic or a hang, which the watchdog would turn
// into an error — and with the checksum on nothing corrupt reaches the
// application.
func FuzzFlip(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint32(5*424+100), false, uint16(30000)) // a request cell
	f.Add(uint8(1), uint8(1), uint32(4000), true, uint16(33000))       // the request's payload, checksum off
	f.Add(uint8(1), uint8(1), uint32(160+13*8+5), true, uint16(33000)) // a reset
	f.Add(uint8(1), uint8(0), uint32(2000), true, uint16(60000))       // the echo's payload, checksum off
	f.Add(uint8(1), uint8(1), uint32(100), false, uint16(0))           // the SYN
	f.Add(uint8(0), uint8(1), uint32(1<<31), false, uint16(65535))     // past every stream
	f.Fuzz(func(t *testing.T, kind, host uint8, bit uint32, off bool, at uint16) {
		mode := cost.ChecksumStandard
		if off {
			mode = cost.ChecksumNone
		}
		ev := sim.FaultEvent{
			At:   flipEchoEnd()[mode] * sim.Time(at) / 65535,
			Kind: sim.FaultWireFlip + sim.FaultKind(kind%2),
			Host: int(host % 2),
			Bit:  int(bit % (1 << 31)),
		}
		o, err := runFlips(nil, mode, sim.FaultSchedule{ev})
		switch {
		case o == errored && (err == nil || err.Error() == ""):
			t.Fatalf("%+v under %v ended in an unnamed error", ev, mode)
		case o == corrupt && mode == cost.ChecksumStandard:
			t.Fatalf("%+v: a corrupt echo reached the application with the checksum on", ev)
		}
	})
}
