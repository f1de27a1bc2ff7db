package core

import (
	"fmt"
	"strings"

	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/paperdata"
	"repro/internal/sim"
	"repro/internal/stats"
)

// CksumRow is one size's user-level copy/checksum measurements (Table 5,
// Figure 2), in microseconds of simulated DECstation time. The real Go
// routines also execute over real buffers so the arithmetic is validated
// as a side effect of generating the table.
type CksumRow struct {
	Size              int
	ULTRIXChecksum    float64
	ULTRIXBcopy       float64
	ULTRIXTotal       float64
	OptimizedChecksum float64
	IntegratedCopyCk  float64
	SavingsPercent    float64 // separate (optimized+copy) versus integrated
}

// CksumResult is the regenerated Table 5.
type CksumResult struct {
	Rows []CksumRow
}

// RunTable5 regenerates Table 5: the user-level copy and checksum study.
// The simulated times come from the calibrated cost curves; the checksums
// themselves are computed for real over random buffers, and the result is
// cross-checked so a broken implementation cannot silently produce the
// table.
func RunTable5() (*CksumResult, error) {
	model := cost.DECstation5000()
	rng := sim.NewRNG(0x7a51e5)
	res := &CksumResult{}
	for _, size := range Sizes {
		buf := make([]byte, size)
		rng.Fill(buf)
		dst := make([]byte, size)

		// Execute the real routines and verify they agree.
		su := checksum.SumULTRIX(buf)
		so := checksum.SumOptimized(buf)
		si := checksum.CopyAndSum(dst, buf)
		if su != so || so != si {
			return nil, fmt.Errorf("core: checksum implementations disagree at size %d", size)
		}
		for i := range buf {
			if dst[i] != buf[i] {
				return nil, fmt.Errorf("core: integrated copy corrupted byte %d", i)
			}
		}

		row := CksumRow{
			Size:              size,
			ULTRIXChecksum:    model.UserChecksumULTRIX.Cost(size).Micros(),
			ULTRIXBcopy:       model.UserBcopy.Cost(size).Micros(),
			OptimizedChecksum: model.UserChecksumOpt.Cost(size).Micros(),
			IntegratedCopyCk:  model.UserCopyChecksum.Cost(size).Micros(),
		}
		row.ULTRIXTotal = row.ULTRIXChecksum + row.ULTRIXBcopy
		separate := row.OptimizedChecksum + row.ULTRIXBcopy
		row.SavingsPercent = stats.PercentDecrease(separate, row.IntegratedCopyCk)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats Table 5 with paper values.
func (r *CksumResult) Render() string {
	t := stats.NewTable(
		"Table 5 / Figure 2: Copy and Checksum Measurements (µs, paper in parens)",
		"Size", "ULTRIX cksum", "bcopy", "total", "optimized", "integrated", "savings%")
	p := paperdata.Table5
	cell := func(v, paper float64) string { return fmt.Sprintf("%.0f(%.0f)", v, paper) }
	for _, row := range r.Rows {
		t.AddRow(row.Size,
			cell(row.ULTRIXChecksum, p["ULTRIXChecksum"][row.Size]),
			cell(row.ULTRIXBcopy, p["ULTRIXBcopy"][row.Size]),
			cell(row.ULTRIXTotal, p["ULTRIXTotal"][row.Size]),
			cell(row.OptimizedChecksum, p["OptimizedChecksum"][row.Size]),
			cell(row.IntegratedCopyCk, p["IntegratedCopyCk"][row.Size]),
			fmt.Sprintf("%.0f(%.0f)", row.SavingsPercent, paperdata.Table5Savings[row.Size]))
	}
	return t.String()
}

// Sun3Result is the §4.1 cross-platform comparison: the relative saving
// of the integrated copy+checksum on the Sun-3 (from Clark et al.) versus
// the DECstation 5000/200.
type Sun3Result struct {
	Sun3SavingPercent float64
	DECSavingPercent  float64
}

// RunSun3Comparison computes the §4.1 comparison from the published
// constants and this model's 1 KB costs.
func RunSun3Comparison() Sun3Result {
	p := paperdata.Sun3Comparison
	model := cost.DECstation5000()
	const oneKB = 1024
	decSep := model.UserChecksumOpt.Cost(oneKB).Micros() + model.UserBcopy.Cost(oneKB).Micros()
	decComb := model.UserCopyChecksum.Cost(oneKB).Micros()
	return Sun3Result{
		Sun3SavingPercent: (p.Sun3Checksum + p.Sun3Copy - p.Sun3Combined) / p.Sun3Combined * 100,
		DECSavingPercent:  (decSep - decComb) / decComb * 100,
	}
}

// Render formats the Sun-3 comparison.
func (r Sun3Result) Render() string {
	var b strings.Builder
	b.WriteString("§4.1 Sun-3 versus DECstation 5000/200 integrated copy+checksum saving\n")
	fmt.Fprintf(&b, "Sun-3 (published): %.0f%% (paper: 35%%)\n", r.Sun3SavingPercent)
	fmt.Fprintf(&b, "DECstation (model): %.0f%% (paper: 68%%)\n", r.DECSavingPercent)
	return b.String()
}
