package core

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/paperdata"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CompareRow is one size's paper-versus-measured pair in a two-series
// experiment (ATM vs Ethernet, prediction on vs off, and so on).
type CompareRow struct {
	Size            int
	A, B            float64 // measured, µs (series meaning depends on table)
	DecreasePercent float64 // relative change the paper reports
}

// CompareResult is a regenerated two-series round-trip table: the echo
// under configurations a and b at every size.
type CompareResult struct {
	Title  string
	ALabel string
	BLabel string
	Rows   []CompareRow
	PaperA map[int]float64
	PaperB map[int]float64

	a, b lab.Config
}

// Render formats the table with paper values alongside measured ones.
func (r *CompareResult) Render() string {
	t := stats.NewTable(r.Title,
		"Size", r.ALabel, "paper", r.BLabel, "paper", "Δ%", "paperΔ%")
	for _, row := range r.Rows {
		paperDelta := stats.PercentDecrease(r.PaperA[row.Size], r.PaperB[row.Size])
		t.AddRow(row.Size, row.A, r.PaperA[row.Size], row.B, r.PaperB[row.Size],
			row.DecreasePercent, paperDelta)
	}
	return t.String()
}

// compareTable returns Table n — 1, 4, 6 or 7, the baseline system
// against one variation of it — with its rows still to be read.
func compareTable(n int) *CompareResult {
	r := &CompareResult{a: baseConfig(), b: baseConfig()}
	switch n {
	case 1:
		r.Title, r.ALabel, r.BLabel = "Table 1: ATM versus Ethernet round-trip latency (µs)", "Ethernet", "ATM"
		r.PaperA, r.PaperB = paperdata.Table1.Ethernet, paperdata.Table1.ATM
		r.a.Link = lab.LinkEther
	case 4: // and Figure 1's series
		r.Title, r.ALabel, r.BLabel = "Table 4 / Figure 1: Effects of Header Prediction (µs)", "NoPred", "Pred"
		r.PaperA, r.PaperB = paperdata.Table4.NoPrediction, paperdata.Table4.Prediction
		r.a.DisablePrediction = true
	case 6:
		r.Title, r.ALabel, r.BLabel = "Table 6: Standard checksum versus combined copy+checksum (µs)", "Standard", "Combined"
		r.PaperA, r.PaperB = paperdata.Table6.Standard, paperdata.Table6.Combined
		r.b.Mode = cost.ChecksumIntegrated
	case 7:
		r.Title, r.ALabel, r.BLabel = "Table 7: Round trips with and without the TCP checksum (µs)", "Checksum", "NoChecksum"
		r.PaperA, r.PaperB = paperdata.Table7.Checksum, paperdata.Table7.NoChecksum
		r.b.Mode = cost.ChecksumNone
	}
	return r
}

// cells requests both series at every size, A then B.
func (r *CompareResult) cells() []cell {
	var out []cell
	for _, size := range Sizes {
		out = append(out, cell{echo: echo{r.a, size, false}}, cell{echo: echo{r.b, size, false}})
	}
	return out
}

// read fills the rows in from a grid measurement.
func (r *CompareResult) read(m map[echo]measurement) *CompareResult {
	cells := r.cells()
	for i := 0; i < len(cells); i += 2 {
		a, b := m[cells[i].echo].rtt, m[cells[i+1].echo].rtt
		r.Rows = append(r.Rows, CompareRow{Size: cells[i].size, A: a, B: b, DecreasePercent: stats.PercentDecrease(a, b)})
	}
	return r
}

// BreakdownResult is a regenerated Table 2 or Table 3.
type BreakdownResult struct {
	Title  string
	Side   string // "transmit" or "receive"
	Layers []trace.Layer
	Labels []string // presentation row labels matching Layers
	// PerSize maps transfer size to the measured breakdown.
	PerSize map[int]Breakdown
	Paper   map[string]map[int]float64
}

// Render formats the breakdown with one column per transfer size, paper
// values in parentheses.
func (r *BreakdownResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "%-14s", "Layer")
	for _, size := range Sizes {
		fmt.Fprintf(&b, "%14d", size)
	}
	b.WriteString("\n")
	line := 14 + 14*len(Sizes)
	b.WriteString(strings.Repeat("-", line) + "\n")
	for i, layer := range r.Layers {
		label := r.Labels[i]
		fmt.Fprintf(&b, "%-14s", label)
		for _, size := range Sizes {
			meas := r.PerSize[size].Rows[layer]
			paper := r.Paper[label][size]
			fmt.Fprintf(&b, "%7.0f(%4.0f)", meas, paper)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-14s", "Total")
	for _, size := range Sizes {
		fmt.Fprintf(&b, "%7.0f(%4.0f)", r.PerSize[size].Total, r.Paper["Total"][size])
	}
	b.WriteString("\n")
	return b.String()
}

// breakdownCells requests the baseline echo at every size with both
// breakdowns: one run yields a column of Table 2 and of Table 3.
func breakdownCells() []cell {
	out := make([]cell, len(Sizes))
	for i, size := range Sizes {
		out[i] = cell{echo{cfg: baseConfig(), size: size}, true}
	}
	return out
}

// breakdownTables reads Tables 2 and 3 out of a grid measurement.
func breakdownTables(m map[echo]measurement) (tx, rx *BreakdownResult) {
	tx = &BreakdownResult{Title: "Table 2: Breakdown of Transmit Side Latency (µs, paper in parens)",
		Side: "transmit", Layers: TxLayers, PerSize: map[int]Breakdown{}, Paper: paperdata.Table2,
		Labels: []string{"User", "TCP.checksum", "TCP.mcopy", "TCP.segment", "IP", "ATM"}}
	rx = &BreakdownResult{Title: "Table 3: Breakdown of Receive Side Latency (µs, paper in parens)",
		Side: "receive", Layers: RxLayers, PerSize: map[int]Breakdown{}, Paper: paperdata.Table3,
		Labels: []string{"ATM", "IPQ", "IP", "TCP.checksum", "TCP.segment", "Wakeup", "User"}}
	for _, c := range breakdownCells() {
		tx.PerSize[c.size], rx.PerSize[c.size] = m[c.echo].tx, m[c.echo].rx
	}
	return tx, rx
}
