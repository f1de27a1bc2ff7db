package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload × metric comparison, by the rule of the
// choosing-metrics guide (§6.5): the change's median may not be worse
// than the parent's by more than the metric's bound; where the spread
// between passes is wider than the bound the metric is unresolved, not
// unchanged, unless every sample of one side beats every sample of the
// other.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// verdict compares the samples of one metric in two ledgers. delta is
// the relative change of the median in the metric's worse direction
// (positive = worse); spread is the wider of the two sides' spreads.
func verdict(d metricDef, a, b []float64) (v string, delta, spread float64) {
	ea, eb := median(a), median(b)
	if ea == 0 {
		if eb == 0 {
			return verdictSame, 0, 0
		}
		return verdictUnresolved, 0, 0
	}
	sign := 1.0
	if d.Better == higher {
		sign = -1
	}
	delta = sign * (eb - ea) / ea
	spread = spreadOf(a)
	if s := spreadOf(b); s > spread {
		spread = s
	}
	if spread > d.Bound {
		sa, sb := sorted(a), sorted(b)
		bBelow, bAbove := sb[len(sb)-1] < sa[0], sb[0] > sa[len(sa)-1] // every B sample under / over every A sample
		if d.Better == higher {
			bBelow, bAbove = bAbove, bBelow
		}
		switch {
		case bBelow:
			return verdictBetter, delta, spread
		case bAbove:
			return verdictWorse, delta, spread
		}
		return verdictUnresolved, delta, spread
	}
	switch {
	case delta > d.Bound:
		return verdictWorse, delta, spread
	case delta < -d.Bound:
		return verdictBetter, delta, spread
	}
	return verdictSame, delta, spread
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(b, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// compareLedgers prints, per workload and end-to-end metric, both
// medians with their quartiles, the change, the metric's bound and the
// verdict; digests and failure counts are compared exactly. It returns
// an error when any metric is worse or unresolved, or a digest differs.
func compareLedgers(w io.Writer, pathA, pathB string) error {
	a, err := readLedger(pathA)
	if err != nil {
		return err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  commit %s  seed %d  %s, %d cpus\n", pathA, short(a.Meta.GitCommit), a.Meta.Seed, a.Meta.CPUModel, a.Meta.NumCPU)
	fmt.Fprintf(w, "B: %s  commit %s  seed %d  %s, %d cpus\n", pathB, short(b.Meta.GitCommit), b.Meta.Seed, b.Meta.CPUModel, b.Meta.NumCPU)
	fmt.Fprintf(w, "%-18s %-19s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "A", "A quartiles", "B", "B quartiles", "change", "bound", "verdict")
	bad := 0
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil || ra.Skipped != "" || rb.Skipped != "" {
			fmt.Fprintf(w, "%-18s not in both ledgers (missing or skipped)\n", name)
			continue
		}
		for _, d := range endToEnd {
			sa, sb := ra.Samples[d.Name], rb.Samples[d.Name]
			v, delta, _ := verdict(d, sa, sb)
			a1, a3 := quartiles(sa)
			b1, b3 := quartiles(sb)
			fmt.Fprintf(w, "%-18s %-19s %12.6g %12.6g-%-12.6g %12.6g %12.6g-%-12.6g %+7.2f%% %5.1f%%  %s\n",
				name, d.Name, median(sa), a1, a3, median(sb), b1, b3, 100*delta, 100*d.Bound, v)
			if v == verdictWorse || v == verdictUnresolved {
				bad++
			}
		}
		exact := verdictSame
		if ra.Digest != rb.Digest || ra.Failed != rb.Failed {
			exact = "DIFFERENT"
			if a.Meta.Seed == b.Meta.Seed {
				bad++ // same inputs must give the same simulation
			}
		}
		fmt.Fprintf(w, "%-18s digest %s vs %s, failed %d/%d vs %d/%d: %s\n",
			name, short(ra.Digest), short(rb.Digest), ra.Failed, ra.Attempted, rb.Failed, rb.Attempted, exact)
	}
	if bad > 0 {
		return fmt.Errorf("%d comparisons are worse, unresolved or differ where they must not", bad)
	}
	return nil
}
