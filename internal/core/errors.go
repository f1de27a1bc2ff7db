package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/atm"
	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The study's echo: errorSize bytes on the switchless ATM pair.
const errorSize, errorSeed = 1400, 1994

// ErrorCounts says how flip cases ended, each in one column: the lowest
// detector that fired (the HEC, the CRC-10, the AAL's sequence, length
// and tag checks, IP's header checksum, TCP's checksum), or when none did,
// whether the echo came back intact (Unseen) or corrupt (undetected at
// the application), or ended in an error.
type ErrorCounts struct {
	HEC, CRC10, AAL, IP, TCP, Unseen, Corrupt, Errored int
}

// outcome is how one case ended: an ErrorCounts column, in order.
type outcome int

const (
	caughtHEC outcome = iota
	caughtCRC10
	caughtAAL
	caughtIP
	caughtTCP
	unseen
	corrupt
	errored
)

func (c *ErrorCounts) cols() [errored + 1]*int {
	return [...]*int{&c.HEC, &c.CRC10, &c.AAL, &c.IP, &c.TCP, &c.Unseen, &c.Corrupt, &c.Errored}
}

// ErrorStudyRow is one region of the request under one checksum mode,
// one case for each bit of it.
type ErrorStudyRow struct {
	Region string
	Mode   cost.ChecksumMode
	Flips  int
	ErrorCounts
}

// ErrorStudyResult is the full §4.2.1 study. Failed names each case
// that ended in an error: its flip, its mode and the error.
type ErrorStudyResult struct {
	Rows   []ErrorStudyRow
	Failed []string
}

// request is the echo's request, located in one unflipped traced run
// (a trace charges no simulated time, so every flipped run is that run
// up to its flip): when the client starts cutting its cells, after every
// earlier frame's, and when the server starts draining them, after every
// earlier datagram's delivery; and its length.
type request struct {
	wireAt, ctlAt sim.Time
	len           int
}

func locateRequest(mode cost.ChecksumMode) (request, error) {
	l := lab.New(lab.Config{Link: lab.LinkATM, Mode: mode, Seed: errorSeed, PacketTrace: true})
	if _, err := l.RunEcho(errorSize, 1, 0); err != nil {
		return request{}, err
	}
	r := request{wireAt: -1, ctlAt: -1}
	for _, ev := range l.PacketEvents() { // the handshake's last ACK may come after the write
		switch {
		case ev.Len < errorSize:
		case ev.Kind == trace.EvDriverTx && ev.Host == l.Client.Kern.Name() && r.wireAt < 0:
			r.wireAt, r.len = ev.At, ev.Len
		case ev.Kind == trace.EvDriverRx && ev.Host == l.Server.Kern.Name() && r.ctlAt < 0:
			r.ctlAt = ev.At
		}
	}
	if r.wireAt < 0 || r.ctlAt < 0 {
		return request{}, fmt.Errorf("core: the reference echo traced no request")
	}
	return r, nil
}

// flip is one case: the given bits of the request's cells (FaultWireFlip,
// from the client) or datagram (FaultControllerFlip, at the server).
func (r request) flip(kind sim.FaultKind, bits ...int) sim.FaultSchedule {
	s := make(sim.FaultSchedule, len(bits))
	for i, b := range bits {
		s[i] = sim.FaultEvent{At: r.ctlAt, Kind: kind, Host: 1, Bit: b}
		if kind == sim.FaultWireFlip {
			s[i].At, s[i].Host = r.wireAt, 0
		}
	}
	return s
}

// runFlips runs the study's echo under mode with s on a testbed from tb
// and says how it ended; the watchdog ends a run that never would.
func runFlips(tb *runner.Testbeds, mode cost.ChecksumMode, s sim.FaultSchedule) (outcome, error) {
	l := tb.Lab(lab.Config{Link: lab.LinkATM, Mode: mode, Seed: errorSeed}, 2)
	if err := l.ScheduleFaults(s); err != nil {
		return errored, err
	}
	wd := l.ArmWatchdog(0)
	echo, err := l.RunEcho(errorSize, 1, 0)
	if wd.Fired() {
		err = wd.Err()
	}
	if err != nil {
		return errored, err
	}
	if echo.CorruptEchoes > 0 {
		return corrupt, nil
	}
	var n [unseen]int64
	for _, h := range l.Hosts {
		d := h.ATMDriver
		for o, v := range [...]int64{d.HECErrors, d.CRC10Errors, d.ReassemblyErrors - d.CRC10Errors, h.IP.Drops, h.TCP.Stats.ChecksumErrors} {
			n[o] += v
		}
	}
	o := caughtHEC
	for o < unseen && n[o] == 0 {
		o++
	}
	return o, nil
}

// sweep runs n cases under mode, case i the schedule flips(i), on one
// testbed, and returns their counts and the cases that ended in an error,
// each named by its first flip.
func sweep(mode cost.ChecksumMode, n int, flips func(i int) sim.FaultSchedule) (ErrorStudyRow, []string) {
	var tb runner.Testbeds
	row, failed := ErrorStudyRow{Mode: mode, Flips: n}, []string(nil)
	for i := 0; i < n; i++ {
		s := flips(i)
		o, err := runFlips(&tb, mode, s)
		*row.cols()[o]++
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s bit %d, checksum %s: %v", s[0].Kind, s[0].Bit, checksumLabel(mode), err))
		}
	}
	return row, failed
}

// RunErrorStudy is the paper's §4.2.1 analysis of what the TCP checksum
// protects once a link-level CRC exists, by construction: one 1400-byte
// echo on the switchless pair, run for every single-bit flip of its
// request — each bit of its cells on the fibre, then of its datagram as
// the controller moves it to host memory — under the checksum on and off,
// counting which detector caught each (the census Stone and Partridge,
// "When the CRC and TCP Checksum Disagree", SIGCOMM 2000, sampled on real
// traffic).
//
//   - Wire noise (error sources 1, 3 and 4) is caught below TCP, by the
//     HEC or the AAL3/4 CRC-10, and repaired by retransmission: the TCP
//     checksum catches nothing, so eliminating it costs nothing.
//   - Controller corruption (error source 2) is invisible to the AAL.
//     With the checksum on, TCP catches it; eliminated, corrupt data
//     reaches the application — the paper's caveat.
//
// The study depends on nothing but the code, so a process runs it once.
var RunErrorStudy = sync.OnceValues(func() (*ErrorStudyResult, error) {
	res := &ErrorStudyResult{}
	for _, mode := range []cost.ChecksumMode{cost.ChecksumStandard, cost.ChecksumNone} {
		r, err := locateRequest(mode)
		if err != nil {
			return nil, fmt.Errorf("core: error study: %w", err)
		}
		// The rows: bits [from, to) of the request's cells as the fibre
		// carries them, then of its datagram as the controller moves it.
		for _, g := range []struct {
			name     string
			kind     sim.FaultKind
			from, to int
		}{
			{"cells", sim.FaultWireFlip, 0, atm.CellsForDatagram(r.len) * atm.CellSize * 8},
			{"IP header", sim.FaultControllerFlip, 0, 160},
			{"TCP header", sim.FaultControllerFlip, 160, 320},
			{"TCP payload", sim.FaultControllerFlip, 320, r.len * 8},
		} {
			row, failed := sweep(mode, g.to-g.from, func(i int) sim.FaultSchedule { return r.flip(g.kind, g.from+i) })
			row.Region = g.name
			res.Rows, res.Failed = append(res.Rows, row), append(res.Failed, failed...)
		}
	}
	return res, nil
})

// Render formats the study.
func (r *ErrorStudyResult) Render() string {
	var b strings.Builder
	b.WriteString("§4.2.1: Where each single-bit flip of a 1400-byte echo request is caught\n")
	writeErrorRows(&b, r.Rows)
	for _, f := range r.Failed {
		b.WriteString("error: " + f + "\n")
	}
	b.WriteString(`Reading: no flip of a request cell reaches TCP (the HEC and the CRC-10
catch every one; retransmission repairs it), so on the wire the TCP
checksum detects nothing. With it on, it catches every controller flip of
a segment it verifies (20 header flips, of the destination port and the
data offset, are dropped before it); with it off, every flip of the
payload reaches the application — the paper's caveat.
`)
	return b.String()
}

// writeErrorRows writes rows as the study's table.
func writeErrorRows(b *strings.Builder, rows []ErrorStudyRow) {
	const row = "%-12s %-5s %7v %6v %6v %5v %5v %7v %6v %7v %5v\n"
	fmt.Fprintf(b, row, "region", "cksum", "flips", "HEC", "CRC-10", "AAL", "IP", "TCP", "unseen", "corrupt", "error")
	for _, r := range rows {
		c := r.ErrorCounts
		fmt.Fprintf(b, row, r.Region, checksumLabel(r.Mode), r.Flips, c.HEC, c.CRC10, c.AAL, c.IP, c.TCP, c.Unseen, c.Corrupt, c.Errored)
	}
}

func checksumLabel(m cost.ChecksumMode) string {
	if m == cost.ChecksumNone {
		return "off"
	}
	return "on"
}
