// One run, any shard count. Every generator spawns its processes on the
// event loops of a lab.Cluster (each on the loop that owns its host, so
// every clock a frame reads is its host's own) and records into one set
// of slot-indexed arrays, a slot per participant. Each slot has exactly
// one writing shard, so nothing needs a lock at any shard count, and the
// coordinator folds the slots in canonical order after every loop has
// drained. A serial lab is the one-shard cluster: the same code, one
// loop.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RunSharded is g.Run(c.Lab): every generator runs across the cluster's
// shards, byte-identical (through JSON encoding) to the same run at any
// other shard count with the same configuration and seed. It is kept for
// the benchmark harness under bench/, its last caller.
func RunSharded(g Generator, c *lab.Cluster) (*Result, error) { return g.Run(c.Lab) }

// participant is one process group's slot: the server's processes, one
// cross flow, or one client. Only the shard that owns the group's host
// writes it while the loops run.
type participant struct {
	err   error    // first failure
	errAt sim.Time // and its virtual time
	last  sim.Time // latest measured completion
	ops   int      // measured operations
	bad   int      // payload mismatches among them
}

// fail records the participant's first failure, stamped with the clock of
// env, the loop its processes run on.
func (pt *participant) fail(env *sim.Env, err error) {
	if pt.err == nil {
		pt.err, pt.errAt = err, env.Now()
	}
}

// firstError is the failure a run reports: the earliest in virtual time,
// and among failures at one instant the first in participant order — the
// server, then cross flows, then clients, each in spawn order. Exact ties
// between different participants resolve by that rule at every shard
// count, one shard included: it does not depend on how an event loop
// happened to order the instant.
func firstError(parts []participant) error {
	var first *participant
	for i := range parts {
		if pt := &parts[i]; pt.err != nil && (first == nil || pt.errAt < first.errAt) {
			first = pt
		}
	}
	if first == nil {
		return nil
	}
	return first.err
}

// run is one generator run's bookkeeping.
type run struct {
	c  *lab.Cluster
	wd *sim.Watchdog

	// parts holds every participant in canonical order: the server, the
	// cross flows, the clients. clients is its tail, indexed by client.
	parts   []participant
	clients []participant

	// The latency sink, want slots per client, client-major — exactly
	// Result.Latencies' order, so exact mode hands the array over as it is.
	// Streaming statistics fold each latency into agg as it completes when
	// one loop runs everything (completion order is then the event order,
	// and nothing per operation is retained); with several shards
	// completions interleave nondeterministically in wall time, so the
	// sink retains each latency with its completion stamp in ats and
	// replays the stream in virtual-time order afterwards. The shard count
	// decides, not a knob: c.NumShards() is all this looks at.
	want int
	cfg  stats.Config
	agg  *stats.Sample
	lats []sim.Time
	ats  []sim.Time
}

// newRun prepares a run on c with cross background flows, each client
// measuring want operations under the stats config. It arms the
// no-progress watchdog on every loop — unless the caller armed one
// already (a test choosing a short horizon) — so a run that stops
// completing operations aborts with a diagnostic naming the stuck
// connections instead of spinning forever. It schedules no event and
// draws no randomness. A topology built with Config.PacketTrace has its
// recorders armed for the whole run, so timelines show the whole
// connection life from the first handshake.
func newRun(c *lab.Cluster, cross, want int, cfg stats.Config) *run {
	clients := len(c.Lab.Hosts) - 1
	r := &run{c: c, wd: c.Lab.Watchdog(), want: want, cfg: cfg,
		parts: make([]participant, 1+cross+clients)}
	r.clients = r.parts[1+cross:]
	if r.wd == nil {
		r.wd = c.ArmWatchdog(0)
	}
	if cfg.Streaming && c.NumShards() == 1 {
		r.agg = stats.NewSample(cfg)
	} else {
		r.lats = make([]sim.Time, clients*want)
		if cfg.Streaming {
			r.ats = make([]sim.Time, clients*want)
		}
	}
	return r
}

// server is the server-side participant.
func (r *run) server() *participant { return &r.parts[0] }

// record folds in client ci's next measured operation, begun at start and
// completing now, its response intact or not. It also reports progress to
// the watchdog, which is how that tells a run that is merely slow from one
// that has stopped completing work.
func (r *run) record(ci int, start, now sim.Time, intact bool) {
	r.wd.Progress()
	pt := &r.clients[ci]
	slot := ci*r.want + pt.ops
	pt.ops++
	pt.last = now
	if !intact {
		pt.bad++
	}
	if r.agg != nil {
		r.agg.Add((now - start).Micros())
		return
	}
	r.lats[slot] = now - start
	if r.ats != nil {
		r.ats[slot] = now
	}
}

// wait runs every loop to completion and returns the run's failure, if
// any: a participant's, else the watchdog's.
func (r *run) wait() error {
	r.c.Run()
	if err := firstError(r.parts); err != nil {
		return err
	}
	return r.wd.Err()
}

// finish waits for the run and folds the clients' slots into the named
// workload's result: every client must have measured want operations
// (unit names them in the error), each of size bytes out and size back;
// Errors sums the mismatches, Elapsed is the latest completion, and the
// latencies arrive client-major or as the streaming aggregate.
func (r *run) finish(workload, unit string, size int) (*Result, error) {
	if err := r.wait(); err != nil {
		return nil, err
	}
	res := &Result{Workload: workload}
	for ci := range r.clients {
		pt := &r.clients[ci]
		if pt.ops != r.want {
			return nil, fmt.Errorf("workload: client %d measured %d of %d %s",
				ci, pt.ops, r.want, unit)
		}
		res.Errors += pt.bad
		if pt.last > res.Elapsed {
			res.Elapsed = pt.last
		}
	}
	if r.ats != nil {
		r.agg = r.replay()
	}
	if r.agg != nil {
		res.agg = r.agg
		res.Requests = r.agg.N()
	} else {
		res.Latencies = r.lats
		res.Requests = len(r.lats)
	}
	res.Bytes = int64(res.Requests) * int64(size) * 2
	collectTrace(r.c.Lab, res)
	return res, nil
}

// replay folds the retained latencies into a streaming aggregate in
// completion order — ascending stamp, ties by client then operation —
// which is the order one loop would have folded them in.
func (r *run) replay() *stats.Sample {
	order := make([]int, len(r.lats))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(i, j int) bool { return r.ats[order[i]] < r.ats[order[j]] })
	agg := stats.NewSample(r.cfg)
	for _, k := range order {
		agg.Add(r.lats[k].Micros())
	}
	return agg
}
