package stats

import (
	"math"
	"sort"
)

// Streaming aggregation: constant-memory moments, P² quantile estimators,
// and reservoir sampling behind the same Sample API.
//
// The exact Sample retains every observation, which is right for the
// paper-scale experiments (their golden tables depend on exact
// nearest-rank quantiles) and wrong for 10,000-host scenarios, where the
// observation stream is the last unbounded memory consumer. A Sample
// built with NewSample(Config{Streaming: true}) holds O(1) state per
// quantile plus a fixed-size reservoir, no matter how many observations
// arrive. The default zero-value Sample remains exact, so nothing about
// the paper-mode outputs can change.

// DefaultReservoirSize is the reservoir capacity when Config.Streaming is
// set without an explicit size: large enough that nearest-rank cuts of
// the reservoir track the true percentiles to a few percent, small enough
// to be irrelevant next to the topology.
const DefaultReservoirSize = 1024

// reservoirSeed seeds the reservoir's replacement RNG: an arbitrary odd
// constant, fixed so that two runs over the same observation stream keep
// identical reservoirs. The simulation's own RNG is never touched:
// aggregation must not perturb simulated behaviour.
const reservoirSeed = 0x9e3779b97f4a7c15

// Config selects how a Sample aggregates.
type Config struct {
	// Streaming selects constant-memory aggregation: Welford moments,
	// P² (Jain–Chlamtac) estimators for the p50/p95/p99 summary, and a
	// reservoir for arbitrary Percentile calls. False — the zero value —
	// retains every observation and computes exact nearest-rank
	// quantiles, as the paper-scale golden tables require.
	Streaming bool
	// ReservoirSize caps the reservoir (zero means
	// DefaultReservoirSize). Only Percentile reads the reservoir;
	// Quantiles uses the P² estimators.
	ReservoirSize int
}

// NewSample returns a Sample aggregating per cfg. NewSample(Config{}) is
// equivalent to a zero-value Sample (exact mode).
func NewSample(cfg Config) *Sample {
	s := &Sample{}
	if cfg.Streaming {
		size := cfg.ReservoirSize
		if size <= 0 {
			size = DefaultReservoirSize
		}
		s.stream = &streamState{
			min: math.Inf(1),
			max: math.Inf(-1),
			res: make([]float64, 0, size),
			rng: reservoirSeed,
		}
		s.stream.q50.init(0.50)
		s.stream.q95.init(0.95)
		s.stream.q99.init(0.99)
	}
	return s
}

// Streaming reports whether the sample aggregates in constant memory.
func (s *Sample) Streaming() bool { return s.stream != nil }

// streamState is the constant-memory aggregate behind a streaming Sample.
type streamState struct {
	n    int64
	min  float64
	max  float64
	mean float64 // Welford running mean
	m2   float64 // Welford sum of squared deviations

	q50, q95, q99 p2

	res []float64 // reservoir (Algorithm R), capacity fixed at build
	rng uint64    // splitmix64 state for reservoir replacement
}

// add folds one observation into every estimator.
func (st *streamState) add(v float64) {
	st.n++
	if v < st.min {
		st.min = v
	}
	if v > st.max {
		st.max = v
	}
	d := v - st.mean
	st.mean += d / float64(st.n)
	st.m2 += d * (v - st.mean)

	st.q50.add(v)
	st.q95.add(v)
	st.q99.add(v)

	if len(st.res) < cap(st.res) {
		st.res = append(st.res, v)
	} else if j := splitmix64(&st.rng) % uint64(st.n); j < uint64(cap(st.res)) {
		// Algorithm R: keep the new observation with probability
		// cap/n, replacing a uniformly chosen resident. The modulo
		// bias at 64-bit range is far below the reservoir's own
		// sampling error.
		st.res[j] = v
	}
}

// percentile is the reservoir-backed nearest-rank cut.
func (st *streamState) percentile(p float64) float64 {
	if len(st.res) == 0 {
		return 0
	}
	sorted := append([]float64(nil), st.res...)
	sort.Float64s(sorted)
	return atRank(sorted, p)
}

// splitmix64 advances the state and returns the next value of the
// sequence — the same generator the runner uses for trial seeds, chosen
// here for the same reason: a few arithmetic ops, full 64-bit
// equidistribution, trivially reproducible.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// p2 is the P² quantile estimator of Jain & Chlamtac (CACM 1985): five
// markers track the running p-quantile without storing observations.
// Markers 0 and 4 ride the observed min and max, marker 2 estimates the
// quantile, and markers 1 and 3 hold the shape of the distribution
// between them, each nudged toward its desired position by a parabolic
// (or, failing monotonicity, linear) adjustment per observation.
type p2 struct {
	p   float64
	cnt int64
	// first holds the initial observations until five have arrived (the
	// estimator needs five markers to start); before that, estimates
	// come from a nearest-rank cut of what exists.
	first [5]float64
	q     [5]float64 // marker heights
	pos   [5]int64   // marker positions (1-based observation counts)
	want  [5]float64 // desired positions
	dwant [5]float64 // desired-position increments per observation
}

// init prepares the estimator for quantile p.
func (e *p2) init(p float64) {
	e.p = p
	e.dwant = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
}

// add folds one observation in.
func (e *p2) add(x float64) {
	if e.cnt < 5 {
		e.first[e.cnt] = x
		e.cnt++
		if e.cnt == 5 {
			q := e.first
			sort.Float64s(q[:])
			e.q = q
			e.pos = [5]int64{1, 2, 3, 4, 5}
			p := e.p
			e.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
		}
		return
	}
	e.cnt++

	// Find the cell the observation falls in, extending the extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x < e.q[1]:
		k = 0
	case x < e.q[2]:
		k = 1
	case x < e.q[3]:
		k = 2
	case x <= e.q[4]:
		k = 3
	default:
		e.q[4] = x
		k = 3
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.want[i] += e.dwant[i]
	}

	// Nudge the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - float64(e.pos[i])
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			var sign int64 = 1
			if d < 0 {
				sign = -1
			}
			if qn := e.parabolic(i, sign); e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height adjustment for marker i
// moving by d (±1).
func (e *p2) parabolic(i int, d int64) float64 {
	qi, qm, qp := e.q[i], e.q[i-1], e.q[i+1]
	ni, nm, np := float64(e.pos[i]), float64(e.pos[i-1]), float64(e.pos[i+1])
	df := float64(d)
	return qi + df/(np-nm)*((ni-nm+df)*(qp-qi)/(np-ni)+(np-ni-df)*(qi-qm)/(ni-nm))
}

// linear is the fallback height adjustment when the parabola would break
// marker monotonicity.
func (e *p2) linear(i int, d int64) float64 {
	j := i + int(d)
	return e.q[i] + float64(d)*(e.q[j]-e.q[i])/float64(e.pos[j]-e.pos[i])
}

// value returns the current estimate.
func (e *p2) value() float64 {
	if e.cnt == 0 {
		return 0
	}
	if e.cnt < 5 {
		sorted := append([]float64(nil), e.first[:e.cnt]...)
		sort.Float64s(sorted)
		return atRank(sorted, e.p*100)
	}
	return e.q[2]
}
