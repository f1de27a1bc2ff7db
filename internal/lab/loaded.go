package lab

import (
	"fmt"

	"repro/internal/atm"
)

// QdiscKind selects the queue discipline installed on switch egress
// ports of a routed ATM fabric (Config.Qdisc).
type QdiscKind int

// Available queue disciplines.
const (
	// QdiscNone keeps the switch's built-in drop-tail egress depth.
	QdiscNone QdiscKind = iota
	// QdiscDropTail is an explicit FIFO with a hard cell bound — the
	// qdisc-shaped twin of the built-in depth, the comparison baseline.
	QdiscDropTail
	// QdiscRED drops arrivals probabilistically once the EWMA queue
	// depth crosses a threshold (random early detection).
	QdiscRED
	// QdiscDRR serves per-VCI flow queues byte-fairly (deficit round
	// robin).
	QdiscDRR
)

// String names the discipline for reports and flag round-trips.
func (k QdiscKind) String() string {
	switch k {
	case QdiscDropTail:
		return "droptail"
	case QdiscRED:
		return "red"
	case QdiscDRR:
		return "drr"
	}
	return "none"
}

// ParseQdiscKind maps a flag string to a QdiscKind.
func ParseQdiscKind(s string) (QdiscKind, error) {
	switch s {
	case "", "none":
		return QdiscNone, nil
	case "droptail":
		return QdiscDropTail, nil
	case "red":
		return QdiscRED, nil
	case "drr":
		return QdiscDRR, nil
	}
	return QdiscNone, fmt.Errorf("unknown qdisc %q (none, droptail, red, drr)", s)
}

// QdiscConfig selects and parameterizes the egress queue discipline.
// Zero parameter values take the discipline's defaults (see atm.NewRED,
// atm.NewDRR); the zero QdiscConfig keeps the built-in drop-tail depth.
type QdiscConfig struct {
	Kind QdiscKind
	// LimitCells bounds the discipline's queue (cells); zero means
	// atm.DefaultPortQueueCells.
	LimitCells int
	// REDMinCells / REDMaxCells / REDMaxP parameterize RED; zeros take
	// the atm package defaults. RED's averaging weight is always
	// atm.DefaultREDWeight, and DRR's quantum always one cell.
	REDMinCells int
	REDMaxCells int
	REDMaxP     float64
}

// Enabled reports whether the configuration installs a discipline.
func (q QdiscConfig) Enabled() bool { return q.Kind != QdiscNone }

// build constructs one discipline instance with a private RNG seed (only
// RED draws from it).
func (q QdiscConfig) build(seed uint64) atm.Qdisc {
	switch q.Kind {
	case QdiscDropTail:
		return atm.NewDropTail(q.LimitCells)
	case QdiscRED:
		return atm.NewRED(q.REDMinCells, q.REDMaxCells, q.REDMaxP, 0, q.LimitCells, seed)
	case QdiscDRR:
		return atm.NewDRR(0, q.LimitCells)
	}
	return nil
}

// deriveSeed mixes a base seed with a stream index into an independent
// stream seed (splitmix64 finalizer over the pair). Per-port qdisc RNGs
// and per-host impairment chains take their seeds here, so every private
// stream is decorrelated from the environment RNG and from each other
// while staying a pure function of Config.Seed.
func deriveSeed(base, stream uint64) uint64 {
	z := base ^ 0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// applyQdisc installs (or removes) the configured discipline on every
// egress port of every switch in the fabric. Fresh instances are built
// on each call — construction is cheap and guarantees a Reset lab's
// disciplines match a fresh build's bit for bit. Per-port seeds derive
// from Config.Seed and the switch/port coordinates.
func applyQdisc(f *atm.Fabric, cfg Config) {
	if f == nil {
		return
	}
	sws := []*atm.Switch{f.Core}
	sws = append(sws, f.Leaves...)
	for si, sw := range sws {
		for pi := 0; pi < sw.NumPorts(); pi++ {
			var qd atm.Qdisc
			if cfg.Qdisc.Enabled() {
				qd = cfg.Qdisc.build(deriveSeed(cfg.Seed, uint64(si)<<16|uint64(pi)))
			}
			sw.Port(pi).SetQdisc(qd)
		}
	}
}
