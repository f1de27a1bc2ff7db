// Sharded workload execution: the same generators, run across a
// lab.Cluster's per-shard event loops instead of one serial loop.
//
// The contract is the cluster's — bit-identity with the serial run — so
// this file changes only WHERE processes run and HOW their observations
// merge, never what they do:
//
//   - Each client's frame is spawned on the event loop that owns its
//     host (Cluster.EnvOf), so every clock read inside the frame is the
//     host's own shard clock. The frames themselves are shard-agnostic:
//     they read p.Env(), which under serial execution is the same loop
//     Lab.Env names.
//   - Shared accumulators become per-client: each client gets its own
//     single-slot latSink, last-completion stamp, Result scratch (for
//     the payload-mismatch Errors counter) and fail closure. Nothing is
//     written cross-shard during the run; the coordinator merges after
//     every loop has drained.
//   - Merging is canonical. Exact-mode latencies concatenate
//     client-major — precisely the serial emission order. Streaming
//     aggregates replay the flattened (completion time, client) stream
//     in sorted order, reproducing the serial fold. Elapsed is the max
//     completion stamp; Errors sum; the first error is the one a serial
//     run would have hit first (earliest virtual time, server before
//     clients on ties).
//
// Server-side processes (accept loop, per-connection echo/sink frames)
// stay on shard 0, which owns host 0 by construction.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/lab"
	"repro/internal/rudp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// RunSharded runs a generator across the cluster's shards and returns a
// result byte-identical (through JSON encoding) to g.Run on a serial lab
// with the same configuration and seed. A single-shard cluster delegates
// to the serial path outright.
func RunSharded(g Generator, c *lab.Cluster) (*Result, error) {
	if c.NumShards() == 1 {
		return g.Run(c.Lab)
	}
	switch gen := g.(type) {
	case Echo:
		return runEchoSharded(gen, c)
	case *Echo:
		return runEchoSharded(*gen, c)
	case FanIn:
		return runFanInSharded(gen, c)
	case *FanIn:
		return runFanInSharded(*gen, c)
	case Churn:
		return runChurnSharded(gen, c)
	case *Churn:
		return runChurnSharded(*gen, c)
	case Bulk:
		return runBulkSharded(gen, c)
	case *Bulk:
		return runBulkSharded(*gen, c)
	default:
		return nil, fmt.Errorf("workload: generator %q does not support sharded execution", g.Name())
	}
}

// shardParticipant is one process group's private accumulator set: a
// client (or the server) records failures and measurements here, and
// only the owning shard's goroutine ever touches it while shards run.
type shardParticipant struct {
	sink  *latSink
	last  sim.Time
	res   Result
	err   error
	errAt sim.Time
}

// failFn builds the participant's failure callback, stamping the owning
// shard's clock so the coordinator can reconstruct which failure a
// serial run would have reported (its runErr keeps the first in event
// order).
func (sp *shardParticipant) failFn(env *sim.Env) func(error) {
	return func(err error) {
		if sp.err == nil {
			sp.err = err
			sp.errAt = env.Now()
		}
	}
}

// firstError returns the failure a serial run would have recorded:
// earliest virtual time wins, and the server's processes (which a serial
// loop schedules ahead of client frames spawned later) win exact ties.
func firstError(server *shardParticipant, clients []*shardParticipant) error {
	best, bestAt := server.err, server.errAt
	for _, sp := range clients {
		if sp.err != nil && (best == nil || sp.errAt < bestAt) {
			best, bestAt = sp.err, sp.errAt
		}
	}
	return best
}

// mergeShardSinks folds the per-client sinks into the result exactly as
// the serial shared sink would have: validate counts, then either
// concatenate client-major (exact mode — the serial emission order) or
// replay the completion-ordered stream into a fresh streaming aggregate.
func mergeShardSinks(r *Result, clients []*shardParticipant, want int, unit string, cfg stats.Config) error {
	for ci, sp := range clients {
		if n := sp.sink.counts[0]; n != want {
			return fmt.Errorf("workload: client %d measured %d of %d %s",
				ci, n, want, unit)
		}
	}
	if cfg.Streaming {
		type rec struct {
			at, lat sim.Time
			ci      int
		}
		var recs []rec
		for ci, sp := range clients {
			lats, ats := sp.sink.perClient[0], sp.sink.times[0]
			for k := range lats {
				recs = append(recs, rec{at: ats[k], ci: ci, lat: lats[k]})
			}
		}
		sort.SliceStable(recs, func(i, j int) bool {
			if recs[i].at != recs[j].at {
				return recs[i].at < recs[j].at
			}
			return recs[i].ci < recs[j].ci
		})
		agg := stats.NewSample(cfg)
		for _, rc := range recs {
			agg.Add(rc.lat.Micros())
		}
		r.agg = agg
		r.Requests = agg.N()
		return nil
	}
	for _, sp := range clients {
		r.Latencies = append(r.Latencies, sp.sink.perClient[0]...)
	}
	r.Requests = len(r.Latencies)
	return nil
}

// mergeShardScalars folds Errors and Elapsed across participants.
func mergeShardScalars(r *Result, clients []*shardParticipant) {
	for _, sp := range clients {
		r.Errors += sp.res.Errors
		if sp.last > r.Elapsed {
			r.Elapsed = sp.last
		}
	}
}

// runEchoSharded delegates to the cluster's echo driver (which manages
// the warmup tracing flip across shards) and shapes the result.
func runEchoSharded(g Echo, c *lab.Cluster) (*Result, error) {
	size, iters, warm := defInt(g.Size, 4), defInt(g.Iterations, 100), defInt(g.Warmup, 8)
	res, err := c.RunEcho(size, iters, warm)
	if err != nil {
		return nil, err
	}
	return echoResult(c.Lab, size, res), nil
}

// runFanInSharded mirrors FanIn.Run with per-client participants; cross
// flows become participants of their own (each runs on the shard owning
// its originating host, with a private fail slot), and the sink's
// processes stay on shard 0 with the server's.
func runFanInSharded(g FanIn, c *lab.Cluster) (*Result, error) {
	l := c.Lab
	size, reqs, warm := defInt(g.Size, 200), defInt(g.Requests, 20), defInt(g.Warmup, 2)
	if err := checkTransport(g.Transport, size); err != nil {
		return nil, err
	}
	clients := len(l.Hosts) - 1
	r := &Result{Workload: "fanin"}
	server := &shardParticipant{}

	if len(g.Faults) > 0 {
		if err := c.ScheduleFaults(g.Faults); err != nil {
			return nil, err
		}
	}
	wd := armClusterWatchdog(c)
	startTrace(l)
	if g.Transport == TransportRUDP {
		e, err := rudp.Listen(l.Hosts[0].Kern, l.Hosts[0].UDP, Port)
		if err != nil {
			return nil, err
		}
		l.Env.Spawn("server.fanin",
			&rudpAcceptLoopFrame{e: e, env: l.Env, n: clients})
	} else {
		ln, err := l.Hosts[0].TCP.Listen(Port)
		if err != nil {
			return nil, err
		}
		spawnEchoServer(l.Env, "server.fanin", ln, clients)
	}
	var crossParts []*shardParticipant
	if g.Cross != nil {
		if err := g.Cross.spawnSink(l, server.failFn(l.Env)); err != nil {
			return nil, err
		}
		ctc := g.Cross.withDefaults()
		crossParts = make([]*shardParticipant, ctc.Flows)
		for f := 0; f < ctc.Flows; f++ {
			hi := ctc.flowHost(f, clients)
			env := c.EnvOf(hi)
			sp := &shardParticipant{}
			crossParts[f] = sp
			g.Cross.spawnFlow(env, l.Hosts[hi], f, sp.failFn(env))
		}
	}

	parts := make([]*shardParticipant, clients)
	for ci := 0; ci < clients; ci++ {
		env := c.EnvOf(ci + 1)
		sp := &shardParticipant{sink: newShardSink(g.Stats.Streaming)}
		sp.sink.wd = wd
		parts[ci] = sp
		if g.Transport == TransportRUDP {
			env.Spawn(fmt.Sprintf("client%d.fanin", ci), &rudpFanInClientFrame{
				host: l.Hosts[ci+1], ci: ci, si: 0, size: size, warm: warm, reqs: reqs,
				startAt: sim.Time(ci) * g.Stagger,
				sink:    sp.sink, last: &sp.last, r: &sp.res, fail: sp.failFn(env),
			})
			continue
		}
		env.Spawn(fmt.Sprintf("client%d.fanin", ci), &fanInClientFrame{
			host: l.Hosts[ci+1], ci: ci, si: 0, size: size, warm: warm, reqs: reqs,
			startAt: sim.Time(ci) * g.Stagger,
			sink:    sp.sink, last: &sp.last, r: &sp.res, fail: sp.failFn(env),
		})
	}

	c.Run()
	if err := firstError(server, parts); err != nil {
		return nil, err
	}
	if err := firstError(server, crossParts); err != nil {
		return nil, err
	}
	if err := wd.Err(); err != nil {
		return nil, err
	}
	if err := mergeShardSinks(r, parts, reqs, "requests", g.Stats); err != nil {
		return nil, err
	}
	r.Bytes = int64(r.Requests) * int64(size) * 2
	mergeShardScalars(r, parts)
	collectTrace(l, r)
	return r, nil
}

// runChurnSharded mirrors Churn.Run with per-client participants.
func runChurnSharded(g Churn, c *lab.Cluster) (*Result, error) {
	l := c.Lab
	conns, size := defInt(g.Conns, 10), defInt(g.Size, 64)
	clients := len(l.Hosts) - 1
	r := &Result{Workload: "churn"}
	server := &shardParticipant{}

	wd := armClusterWatchdog(c)
	startTrace(l)
	ln, err := l.Hosts[0].TCP.Listen(Port)
	if err != nil {
		return nil, err
	}
	spawnEchoServer(l.Env, "server.churn", ln, clients*conns)

	parts := make([]*shardParticipant, clients)
	for ci := 0; ci < clients; ci++ {
		env := c.EnvOf(ci + 1)
		sp := &shardParticipant{sink: newShardSink(g.Stats.Streaming)}
		sp.sink.wd = wd
		parts[ci] = sp
		env.Spawn(fmt.Sprintf("client%d.churn", ci), &churnClientFrame{
			host: l.Hosts[ci+1], ci: ci, si: 0, size: size, conns: conns,
			sink: sp.sink, last: &sp.last, r: &sp.res, fail: sp.failFn(env),
		})
	}

	c.Run()
	if err := firstError(server, parts); err != nil {
		return nil, err
	}
	if err := wd.Err(); err != nil {
		return nil, err
	}
	if err := mergeShardSinks(r, parts, conns, "cycles", g.Stats); err != nil {
		return nil, err
	}
	r.Bytes = int64(r.Requests) * int64(size) * 2
	mergeShardScalars(r, parts)
	collectTrace(l, r)
	return r, nil
}

// runBulkSharded mirrors Bulk.Run. The shared starts/dones/received
// arrays survive sharding as-is: starts[ci] is written only by client
// ci's shard, dones[ci] and received[ci] only by the server's (the
// per-connection sink frames run on shard 0), and the postamble reads
// them after every loop has drained.
func runBulkSharded(g Bulk, c *lab.Cluster) (*Result, error) {
	l := c.Lab
	total, chunk := defInt(g.Bytes, 65536), defInt(g.Chunk, 8192)
	clients := len(l.Hosts) - 1
	r := &Result{Workload: "bulk"}
	server := &shardParticipant{}
	serverFail := server.failFn(l.Env)

	starts := make([]sim.Time, clients)
	dones := make([]sim.Time, clients)
	received := make([]int, clients)

	wd := armClusterWatchdog(c)
	startTrace(l)
	ln, err := l.Hosts[0].TCP.Listen(Port)
	if err != nil {
		return nil, err
	}
	l.Env.Spawn("server.bulk", &acceptLoopFrame{
		ln: ln, n: clients,
		accepted: func(al *acceptLoopFrame, _ int, op *tcp.AcceptOp) bool {
			i := int(op.C.Key().RemoteAddr - lab.HostAddr(1))
			if i < 0 || i >= clients {
				serverFail(fmt.Errorf("workload: bulk connection from unexpected address %#x",
					op.C.Key().RemoteAddr))
				return false
			}
			l.Env.Spawn(fmt.Sprintf("server.bulk.conn%d", i),
				&bulkConnFrame{so: op.So, al: al, i: i, dones: dones,
					received: received, fail: serverFail, wd: wd})
			return true
		},
	})

	parts := make([]*shardParticipant, clients)
	for ci := 0; ci < clients; ci++ {
		env := c.EnvOf(ci + 1)
		sp := &shardParticipant{}
		parts[ci] = sp
		env.Spawn(fmt.Sprintf("client%d.bulk", ci), &bulkClientFrame{
			host: l.Hosts[ci+1], ci: ci, total: total, chunk: chunk,
			starts: starts, fail: sp.failFn(env),
		})
	}

	c.Run()
	if err := firstError(server, parts); err != nil {
		return nil, err
	}
	if err := wd.Err(); err != nil {
		return nil, err
	}
	var last sim.Time
	for ci := 0; ci < clients; ci++ {
		if received[ci] != total {
			r.Errors++
		}
		r.Latencies = append(r.Latencies, dones[ci]-starts[ci])
		r.Bytes += int64(received[ci])
		if dones[ci] > last {
			last = dones[ci]
		}
	}
	r.Requests = clients
	r.Elapsed = last
	collectTrace(l, r)
	return r, nil
}
