// Package stats provides the small statistical and table-formatting
// helpers shared by the experiment harness and the command-line tools:
// sample aggregation (mean, min, max, standard deviation, quantiles)
// and fixed-width text tables in the style of the paper.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates a set of float64 observations. The zero value is
// the exact aggregator the paper-scale tables rely on: it retains every
// observation and computes exact nearest-rank quantiles. NewSample with
// Config.Streaming builds the constant-memory variant instead (see
// streaming.go); the API is identical either way.
type Sample struct {
	values []float64
	stream *streamState
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	if s.stream != nil {
		s.stream.add(v)
		return
	}
	s.values = append(s.values, v)
}

// Grow makes room for n more observations, so that a caller who knows
// how many are coming sizes the exact sample once instead of growing it
// by doubling. A streaming sample holds constant state: Grow is a no-op.
func (s *Sample) Grow(n int) {
	if s.stream == nil && cap(s.values)-len(s.values) < n {
		v := make([]float64, len(s.values), len(s.values)+n)
		copy(v, s.values)
		s.values = v
	}
}

// N returns the number of observations.
func (s *Sample) N() int {
	if s.stream != nil {
		return int(s.stream.n)
	}
	return len(s.values)
}

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if s.stream != nil {
		if s.stream.n == 0 {
			return 0
		}
		return s.stream.mean
	}
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if s.stream != nil {
		if s.stream.n == 0 {
			return 0
		}
		return s.stream.min
	}
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if s.stream != nil {
		if s.stream.n == 0 {
			return 0
		}
		return s.stream.max
	}
	if len(s.values) == 0 {
		return 0
	}
	m := s.values[0]
	for _, v := range s.values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// StdDev returns the population standard deviation, or 0 for fewer than
// two observations.
func (s *Sample) StdDev() float64 {
	if s.stream != nil {
		if s.stream.n < 2 {
			return 0
		}
		return math.Sqrt(s.stream.m2 / float64(s.stream.n))
	}
	if len(s.values) < 2 {
		return 0
	}
	mean := s.Mean()
	sum := 0.0
	for _, v := range s.values {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(s.values)))
}

// Percentile returns the p-th percentile (0 <= p <= 100): nearest-rank
// on a sorted copy of the observations in exact mode, nearest-rank over
// the reservoir in streaming mode. 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if s.stream != nil {
		return s.stream.percentile(p)
	}
	if len(s.values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	return atRank(sorted, p)
}

// atRank is the nearest-rank cut shared by Percentile and Quantiles:
// one definition, so the two can never drift apart.
func atRank(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Quantiles is the p50/p95/p99 summary the latency reports print: the
// common case, the tail the paper's RPC discussion cares about, and the
// extreme tail that retransmission stalls dominate.
type Quantiles struct {
	P50, P95, P99 float64
}

// Quantiles returns the sample's p50/p95/p99, or zeros for an empty
// sample. Exact mode sorts one copy and serves all three cuts; streaming
// mode reads the three P² estimators.
func (s *Sample) Quantiles() Quantiles {
	if s.stream != nil {
		return Quantiles{
			P50: s.stream.q50.value(),
			P95: s.stream.q95.value(),
			P99: s.stream.q99.value(),
		}
	}
	if len(s.values) == 0 {
		return Quantiles{}
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	return Quantiles{
		P50: atRank(sorted, 50),
		P95: atRank(sorted, 95),
		P99: atRank(sorted, 99),
	}
}

// PercentDecrease returns the relative decrease from a to b in percent,
// the metric used throughout the paper's comparison tables (e.g. "ATM is
// 47% lower than Ethernet"). A zero baseline yields 0.
func PercentDecrease(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (a - b) / a * 100
}

// Table renders fixed-width text tables resembling the paper's layout.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row of cells. Non-string values are formatted with %v;
// float64 values with one decimal place, matching the paper.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := ""
	if t.Title != "" {
		out += t.Title + "\n"
	}
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			if i > 0 {
				s += "  "
			}
			s += fmt.Sprintf("%*s", widths[i], c)
		}
		return s + "\n"
	}
	out += line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	for i := 0; i < total-2; i++ {
		out += "-"
	}
	out += "\n"
	for _, row := range t.rows {
		out += line(row)
	}
	return out
}
