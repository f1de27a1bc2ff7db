package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestEventIdentity pins what host-side bookkeeping must never move: the
// events a run fires, the clock it drains at and the digest of its
// result. The constants were captured at the commit before a connection
// became one allocation (docs/PERFORMANCE.md item 19) — before the 2MSL
// release became a sim.Timer and the stacks' deferred work typed items —
// so a change that shifts one (at, seq) fails here by name. The loaded
// runs are there for the timers: under burst loss, reordering and cross
// traffic they retransmit, delay ACKs and pass connections through
// TIME_WAIT, and each checks that it still does. Their fired count and
// drained clock were re-captured once, when tcp_output began advancing
// the send sequence with its send decision: the RTT sample starts there,
// which moves the timers left running after the last request. Their
// digests did not move. Every fired count was re-captured once more when
// a sleep that has to wait began serving the events ahead of its wake on
// its own stack (docs/PERFORMANCE.md item 26): its wake is no longer an
// event, and no clock or digest moved. The DropTail and DRR rows were
// captured before a discipline that serves in arrival order began
// deciding admission at forward time (item 27); that change re-captured
// the RED and DropTail fired counts — a cell no longer fires an arrival
// at the discipline and a service completion — and moved no clock or
// digest. The DRR row kept both events until DRR began picking the cell
// that fills each slot when the slot's arrival fires (item 28); that
// change re-captured its fired count, and moved no clock or digest.
func TestEventIdentity(t *testing.T) {
	loaded := lab.Config{Link: lab.LinkATM, Seed: 1994,
		Qdisc:       lab.QdiscConfig{Kind: lab.QdiscRED, REDMinCells: 2, REDMaxCells: 256, REDMaxP: 0.5},
		BurstLoss:   sim.GEParams{PGoodBad: 0.002, PBadGood: 0.2, LossBad: 0.5},
		ReorderRate: 0.0005, ReorderDepth: 2,
	}
	loadedGen := func(transport string) FanIn {
		return FanIn{Size: 200, Requests: 32, Warmup: 1, Transport: transport,
			Cross: &CrossTraffic{Flows: 2, MinBytes: 32768}}
	}
	runs := []struct {
		name   string
		hosts  int
		cfg    lab.Config
		gen    FanIn
		timers bool // the run must retransmit and delay ACKs
		fired  uint64
		clock  sim.Time
		digest string
	}{
		{
			name:  "fattree-fanin-1k",
			hosts: 1001,
			cfg:   lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, Seed: 1994, HashPCBs: true},
			gen:   FanIn{Size: 200, Requests: 1, Stagger: 5000 * sim.Microsecond, Stats: stats.Config{Streaming: true}},
			fired: 351997, clock: 7995685864,
			digest: "7b4c3ffd71a447de70e645c190c385dddc0216d7296b069d341ea53c3857a9c4",
		},
		{
			name: "loaded-grid-tcp-red", hosts: 33, cfg: loaded, gen: loadedGen(TransportTCP), timers: true,
			fired: 125303, clock: 41235804273,
			digest: "6812b67060950b34b15e40a69874d68af54a9ca999dd3586216a27936c772b49",
		},
		{
			name: "loaded-grid-rudp-red", hosts: 33, cfg: loaded, gen: loadedGen(TransportRUDP),
			fired: 174234, clock: 47257311562,
			digest: "dfcbd586211d8b17c7a454b7bedf73c916fb9d9438c5d5cb767d7e738bfd65f0",
		},
		{
			// A 32-cell limit, so that admission drops cells: at the
			// default 1,024 this workload's queue never fills.
			name: "loaded-grid-tcp-droptail", hosts: 33, cfg: withQdisc(loaded, lab.QdiscDropTail, 32), gen: loadedGen(TransportTCP), timers: true,
			fired: 123213, clock: 349001257372,
			digest: "2ebb22631994028c910abbd58aac5acf5e068eb417121b010aad484277d5dc39",
		},
		{
			name: "loaded-grid-rudp-drr", hosts: 33, cfg: withQdisc(loaded, lab.QdiscDRR, 0), gen: loadedGen(TransportRUDP),
			fired: 172558, clock: 51254866816,
			digest: "8a2d1774fd38c545ba9ac50a22c74ec143895068ecbe5c1ebc4a00a17088be8a",
		},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			l := lab.NewTopology(r.cfg, r.hosts)
			res, err := r.gen.Run(l)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			digest := hex.EncodeToString(sum[:])
			if l.Env.Fired() != r.fired || l.Env.Now() != r.clock || digest != r.digest {
				t.Errorf("fired %d, clock %d, digest %s; want %d, %d, %s",
					l.Env.Fired(), l.Env.Now(), digest, r.fired, r.clock, r.digest)
			}
			if !r.timers {
				return
			}
			var rexmt, delack int64
			for _, h := range l.Hosts {
				rexmt += h.TCP.Stats.Retransmits
				delack += h.TCP.Stats.DelayedAcks
			}
			if rexmt == 0 || delack == 0 {
				t.Errorf("%d retransmissions, %d delayed ACKs: the run no longer exercises the timers", rexmt, delack)
			}
		})
	}
}

// withQdisc returns cfg with the discipline switched to kind and its
// limit set (zero: the default).
func withQdisc(cfg lab.Config, kind lab.QdiscKind, limit int) lab.Config {
	cfg.Qdisc.Kind, cfg.Qdisc.LimitCells = kind, limit
	return cfg
}
