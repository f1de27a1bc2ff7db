// Package core is the paper's measurement study as a library: it runs the
// round-trip benchmark of §1.2 on the simulated testbed in every
// configuration the paper evaluates, extracts per-layer latency
// breakdowns the way the paper's instrumentation does, and regenerates
// every table and figure (Tables 1–7, Figures 1 and 2) with
// paper-versus-measured comparisons.
package core

import (
	"fmt"

	"repro/internal/lab"
	"repro/internal/trace"
)

// Breakdown is a per-layer latency decomposition for one transfer size,
// averaged over the measured iterations. Rows are microseconds, keyed by
// trace layer; Total is the measured window length; Other is window time
// not attributed to any reported row (for the receive side this includes,
// for example, ACK transmission triggered during input processing).
type Breakdown struct {
	Size  int
	Rows  map[trace.Layer]float64
	Total float64
	Other float64
}

// TxLayers are the rows of the paper's transmit-side table (Table 2), in
// presentation order, for the ATM configuration.
var TxLayers = []trace.Layer{
	trace.LayerUserTx,
	trace.LayerTCPCksumTx,
	trace.LayerTCPMcopy,
	trace.LayerTCPSegmentTx,
	trace.LayerIPTx,
	trace.LayerATMTx,
}

// RxLayers are the rows of the paper's receive-side table (Table 3).
var RxLayers = []trace.Layer{
	trace.LayerATMRx,
	trace.LayerIPQ,
	trace.LayerIPRx,
	trace.LayerTCPCksumRx,
	trace.LayerTCPSegmentRx,
	trace.LayerWakeup,
	trace.LayerUserRx,
}

// MeasureBreakdowns runs the echo benchmark and produces the paper's two
// decompositions for one size:
//
//   - transmit: the client's CPU charges between entering write(2) and
//     write returning — by construction everything up to the last byte
//     being handed to the adapter, since the whole output path runs in
//     process context (§2.2's transmit measurement).
//   - receive: the client's CPU charges between the arrival of the final
//     cell group of the last segment of the echoed response and the read
//     returning — the paper's rule that only processing after the last
//     arrival contributes to latency (§2.2's receive measurement).
func MeasureBreakdowns(cfg lab.Config, size, iterations, warmup int) (tx, rx Breakdown, err error) {
	m, err := cell{echo{cfg: cfg, size: size}, true}.run(nil, 0,
		Options{Iterations: iterations, Warmup: warmup})
	return m.tx, m.rx, err
}

// breakdowns extracts both decompositions from the client's events evs,
// recorded in the echo run that produced res.
func breakdowns(evs []trace.Event, res *lab.EchoResult) (tx, rx Breakdown, err error) {
	tx = Breakdown{Size: res.Size, Rows: map[trace.Layer]float64{}}
	rx = Breakdown{Size: res.Size, Rows: map[trace.Layer]float64{}}
	n := float64(len(res.Windows))
	for _, w := range res.Windows {
		// Transmit side.
		txRows := trace.BreakdownFromEvents(evs, w.WriteStart, w.WriteEnd)
		for layer, d := range txRows {
			tx.Rows[layer] += d.Micros() / n
		}
		tx.Total += (w.WriteEnd - w.WriteStart).Micros() / n

		// Receive side: origin is the last wire arrival before the read
		// returned.
		origin, ok := trace.LastArrival(evs, w.ReadReturn)
		if !ok || origin < w.WriteEnd {
			// No response frame recorded (should not happen).
			return tx, rx, fmt.Errorf("core: no wire-arrival event for iteration")
		}
		rxRows := trace.BreakdownFromEvents(evs, origin, w.ReadReturn)
		for layer, d := range rxRows {
			rx.Rows[layer] += d.Micros() / n
		}
		rx.Total += (w.ReadReturn - origin).Micros() / n
	}
	tx.Other = unattributed(tx, TxLayers)
	rx.Other = unattributed(rx, RxLayers)
	return tx, rx, nil
}

// unattributed computes window time outside the presented rows.
func unattributed(b Breakdown, layers []trace.Layer) float64 {
	sum := 0.0
	for _, l := range layers {
		sum += b.Rows[l]
	}
	rest := b.Total - sum
	if rest < 0 {
		rest = 0
	}
	return rest
}
