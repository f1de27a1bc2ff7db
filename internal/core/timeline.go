package core

import (
	"fmt"
	"math"

	"repro/internal/lab"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TimelineStudyResult compares two routes to the paper's breakdown
// tables for one transfer size: the span route (Recorder.Breakdown over
// the cost-model charges — what Tables 2 and 3 ship) and the packet
// route (the same windows applied to the typed per-packet event stream,
// reconstructed into timelines first). The two must agree exactly: both
// record the same CPU charges, so any divergence means an
// instrumentation point lost or double-counted a charge.
type TimelineStudyResult struct {
	Size int `json:"size"`
	// Packets is the number of distinct on-wire identities observed;
	// EventCount the total typed events recorded.
	Packets    int `json:"packets"`
	EventCount int `json:"events"`

	// Tx and Rx are re-derived from the measured per-packet event
	// stream; RefTx and RefRx are the span-based tables.
	Tx    Breakdown `json:"tx"`
	Rx    Breakdown `json:"rx"`
	RefTx Breakdown `json:"ref_tx"`
	RefRx Breakdown `json:"ref_rx"`

	// MaxDeltaMicros is the largest absolute row or total divergence
	// between the two derivations, in microseconds.
	MaxDeltaMicros float64 `json:"max_delta_us"`
}

// RunTimelineStudy runs the echo benchmark twice at the same fixed
// configuration and seed — once untraced for the span-based reference
// tables, once with per-packet tracing armed — and re-derives the
// transmit- and receive-side breakdowns from the event stream using the
// paper's measurement windows (§2.2): write entry to write return for
// transmit, last wire arrival to read return for receive. Packet
// tracing charges no simulated time, so the runs are bit-identical in
// timing and the derivations must match to the last charge.
func RunTimelineStudy(cfg lab.Config, size, iterations, warmup int) (*TimelineStudyResult, error) {
	refTx, refRx, err := MeasureBreakdowns(cfg, size, iterations, warmup)
	if err != nil {
		return nil, fmt.Errorf("core: reference breakdown: %w", err)
	}

	cfg.PacketTrace = true
	l := lab.New(cfg)
	res, err := l.RunEcho(size, iterations, warmup)
	if err != nil {
		return nil, fmt.Errorf("core: traced echo: %w", err)
	}
	evs := l.PacketEvents()
	set := trace.BuildTimelines(evs)
	host := l.Client.Kern.Name()

	tx := Breakdown{Size: size, Rows: map[trace.Layer]float64{}}
	rx := Breakdown{Size: size, Rows: map[trace.Layer]float64{}}
	n := float64(len(res.Windows))
	for _, w := range res.Windows {
		txRows := trace.BreakdownFromEvents(evs, host, w.WriteStart, w.WriteEnd)
		for layer, d := range txRows {
			tx.Rows[layer] += d.Micros() / n
		}
		tx.Total += (w.WriteEnd - w.WriteStart).Micros() / n

		origin, ok := trace.LastArrival(evs, host, w.ReadReturn)
		if !ok || origin < w.WriteEnd {
			return nil, fmt.Errorf("core: no wire-arrival event for iteration")
		}
		rxRows := trace.BreakdownFromEvents(evs, host, origin, w.ReadReturn)
		for layer, d := range rxRows {
			rx.Rows[layer] += d.Micros() / n
		}
		rx.Total += (w.ReadReturn - origin).Micros() / n
	}
	tx.Other = unattributed(tx, TxLayers)
	rx.Other = unattributed(rx, RxLayers)

	r := &TimelineStudyResult{
		Size:       size,
		Packets:    len(set.Packets),
		EventCount: len(evs),
		Tx:         tx,
		Rx:         rx,
		RefTx:      refTx,
		RefRx:      refRx,
	}
	r.MaxDeltaMicros = math.Max(breakdownDelta(tx, refTx), breakdownDelta(rx, refRx))
	return r, nil
}

// breakdownDelta returns the largest absolute per-row (or total)
// divergence between two breakdowns, in microseconds.
func breakdownDelta(a, b Breakdown) float64 {
	max := math.Abs(a.Total - b.Total)
	seen := map[trace.Layer]bool{}
	for layer, v := range a.Rows {
		seen[layer] = true
		if d := math.Abs(v - b.Rows[layer]); d > max {
			max = d
		}
	}
	for layer, v := range b.Rows {
		if !seen[layer] {
			if d := math.Abs(v); d > max {
				max = d
			}
		}
	}
	return max
}

// Render formats the study as a side-by-side table: each presentation
// row of Tables 2 and 3 with the packet-derived and span-derived values
// and their divergence.
func (r *TimelineStudyResult) Render() string {
	t := stats.NewTable(
		fmt.Sprintf("Timeline study: breakdown re-derived from %d packets, %d events (size %d, µs)",
			r.Packets, r.EventCount, r.Size),
		"Row", "packets", "spans", "|Δ|")
	add := func(side string, layers []trace.Layer, ev, ref Breakdown) {
		for _, layer := range layers {
			t.AddRow(side+" "+string(layer), ev.Rows[layer], ref.Rows[layer],
				math.Abs(ev.Rows[layer]-ref.Rows[layer]))
		}
		t.AddRow(side+" Total", ev.Total, ref.Total, math.Abs(ev.Total-ref.Total))
	}
	add("tx", TxLayers, r.Tx, r.RefTx)
	add("rx", RxLayers, r.Rx, r.RefRx)
	return t.String()
}
