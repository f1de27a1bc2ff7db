package runner

import "repro/internal/lab"

// maxWarmLabs bounds how many warm testbeds one worker keeps. Real
// sweeps use one to three shapes (two-host ATM, two-host Ethernet, one
// fan-in mesh); the bound only matters for a pathological grid that
// varies host count per cell, which simply stops caching past the bound.
const maxWarmLabs = 4

// Testbeds is one worker's cache of warm testbeds, the worker-affine
// half of testbed reuse: every worker owns its Testbeds outright (a
// testbed is one simulation), runs its share of the grid through them,
// and resets a warm testbed to each new trial's configuration instead
// of rebuilding kernels, pools, and event heaps from scratch.
//
// Reuse cannot perturb results: the reset rewinds every piece of
// per-trial state — the event loop, RNG and host state — to
// what a fresh construction would hold (the bit-identity contract the
// lab's tests pin against the golden outputs), and each trial's seed
// still derives from its grid position alone — so the outcome of a cell
// is independent of which worker ran it and of whatever that worker's
// testbeds ran before.
//
// The reset happens on acquisition, not on release: after a job
// finishes, its lab still holds that trial's trace records and counters,
// which study code reads after the run returns. The records stay valid
// until the worker starts its next trial of the same shape.
type Testbeds struct {
	warm map[lab.Shape]*lab.Cluster

	// Built and Reused count cache misses and hits, for the reuse tests.
	Built  int
	Reused int
}

// Lab returns a testbed for cfg: the one-shard Cluster's lab. A
// configuration lab.Config.Validate refuses panics with its error, which
// runOne turns into a labelled job error.
func (tb *Testbeds) Lab(cfg lab.Config, nHosts int) *lab.Lab {
	c, err := tb.Cluster(cfg, nHosts)
	if err != nil {
		panic(err)
	}
	return c.Lab
}

// Cluster returns a one-shard testbed for cfg with nHosts hosts (values
// below 2 are raised to 2, the lab minimum): a warm one reset to cfg
// when the worker holds one of the right shape, otherwise a freshly
// built one that joins the cache. A nil *Testbeds always builds fresh,
// so code paths that opt out of reuse need no second call form.
// Construction errors propagate — the caller fails the trial.
func (tb *Testbeds) Cluster(cfg lab.Config, nHosts int) (*lab.Cluster, error) {
	if nHosts < 2 {
		nHosts = 2
	}
	if tb == nil {
		return lab.NewCluster(cfg, nHosts, 1)
	}
	// Validated before the cache is consulted: what a warm testbed would
	// accept must not differ from what a fresh build would.
	if err := cfg.Validate(nHosts, 1); err != nil {
		return nil, err
	}
	key := cfg.Shape(nHosts, 1)
	if c := tb.warm[key]; c != nil {
		if err := c.Reset(cfg, 0); err == nil {
			tb.Reused++
			return c, nil
		}
		// A failed reset — an undrained event loop from an errored trial —
		// makes the warm testbed unusable, so drop it and build fresh.
		delete(tb.warm, key)
	}
	c, err := lab.NewCluster(cfg, nHosts, 1)
	if err != nil {
		return nil, err
	}
	tb.Built++
	if tb.warm == nil {
		tb.warm = make(map[lab.Shape]*lab.Cluster, maxWarmLabs)
	}
	if len(tb.warm) < maxWarmLabs {
		tb.warm[key] = c
	}
	return c, nil
}
