package core

import (
	"context"

	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/runner"
)

// echo is one cell of the paper's evaluation grid: the §1.2 echo benchmark
// under one configuration at one size, over TCP or UDP. Every round-trip
// table is a view of such cells, and the views overlap — the baseline
// system is a column of Tables 1, 4, 6 and 7 and of the transport
// comparison, and the run behind Tables 2 and 3 — so an echo (lab.Config
// is comparable) is a map key, and each is measured once.
type echo struct {
	cfg  lab.Config
	size int
	udp  bool
}

// cell is a view's request for an echo; breakdowns asks for the client's
// two breakdowns from the same run.
type cell struct {
	echo
	breakdowns bool
}

// measurement is one echo's mean round trip (µs) and, when asked for,
// its breakdowns.
type measurement struct {
	rtt    float64
	tx, rx Breakdown
}

// distinct folds the requests for each echo into one, in first-request
// order (which fixes its grid index and so its derived seed), with the
// breakdowns armed when any request asks for them.
func distinct(cells []cell) []cell {
	at := map[echo]int{}
	var out []cell
	for _, c := range cells {
		if i, seen := at[c.echo]; seen {
			out[i].breakdowns = out[i].breakdowns || c.breakdowns
			continue
		}
		at[c.echo] = len(out)
		out = append(out, c)
	}
	return out
}

// measure runs each distinct echo the cells name once through the sweep
// engine and returns every echo's measurement, bit-identical at any
// worker count.
func measure(cells []cell, o Options) (map[echo]measurement, error) {
	o = o.normalize()
	cells = distinct(cells)
	jobs := make([]runner.Job, len(cells))
	for i, c := range cells {
		c := c
		label := runner.TrialLabel(c.cfg, c.size)
		if c.udp {
			label += "/udp"
		}
		jobs[i] = runner.Job{Label: label, RunOn: func(_ context.Context, tb *runner.Testbeds, seed uint64) (any, error) {
			return c.run(tb, seed, o)
		}}
	}
	outs, err := runner.Run(context.Background(), jobs, o.runnerOpts())
	if err == nil {
		err = runner.FirstError(outs)
	}
	if err != nil {
		return nil, err
	}
	m := make(map[echo]measurement, len(cells))
	for i, c := range cells {
		m[c.echo] = outs[i].Value.(measurement)
	}
	return m, nil
}

// run measures the cell on a testbed from the worker's warm cache, or a
// fresh one when tb is nil. Arming the client's recorder for the
// breakdowns leaves the round trip unchanged to the bit.
func (c cell) run(tb *runner.Testbeds, seed uint64, o Options) (measurement, error) {
	l := tb.Lab(runner.ApplySeed(c.cfg, seed), 2)
	run := l.RunEcho
	if c.udp {
		run = l.RunUDPEcho
	} else if c.breakdowns {
		l.Client.Trace().EnablePackets() // the next Reset disarms it
	}
	res, err := run(c.size, o.Iterations, o.Warmup)
	if err != nil {
		return measurement{}, err
	}
	m := measurement{rtt: res.MeanRTTMicros()}
	if c.breakdowns {
		m.tx, m.rx, err = breakdowns(l.Client.Trace().Events(), res)
	}
	return m, err
}

// paperGrid is every cell the paper's round-trip tables read, the union
// RunAll measures once: distinct, the baseline, Ethernet, no-prediction,
// integrated and no-checksum echoes at every size and UDP at the seven
// sizes the transport comparison reads.
func paperGrid() []cell {
	cells := breakdownCells()
	for _, n := range []int{1, 4, 6, 7} {
		cells = append(cells, compareTable(n).cells()...)
	}
	return append(cells, transportCells(cost.ChecksumStandard)...)
}
