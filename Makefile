GO ?= go

# Every test target carries an explicit -timeout and every smoke target a
# wall-clock deadline: a reintroduced livelock (the watchdog tier's whole
# reason to exist) must fail CI in minutes, not ride the 10-minute
# per-package default or hang a -race smoke until the job is killed.
SMOKE_DEADLINE ?= 600

.PHONY: all fmt fmt-check vet loc build test race bench-check alloc-census tables load-smoke load-scale-smoke loaded-smoke docs-check fuzz-flags explore

all: build test

## fmt: rewrite all Go files with gofmt
fmt:
	gofmt -w .

## fmt-check: fail if any file is not gofmt-clean (what CI runs)
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## vet: static analysis
vet:
	$(GO) vet ./...

## loc: non-test Go lines per package outside bench/, repo total last —
## the counts a simplicity PR quotes
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs wc -l | \
		awk '{ d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } END { for (d in n) print n[d], d }' | sort -k2

## build: compile every package
build:
	$(GO) build ./...

## test: the tier-1 suite
test:
	$(GO) test -timeout 240s ./...

## race: the tier-1 suite under the race detector
race:
	$(GO) test -race -timeout 600s ./...

## bench-check: build and test the benchmark harness (what CI runs).
## bench/ is its own module, so the root ./... never compiles it: an API
## drift in what it calls (lab.Cluster, the workload generators) would
## otherwise surface only when the benchmark itself is run.
bench-check:
	$(GO) test -C bench -timeout 300s ./...

## alloc-census: where the served fan-in, the loaded grid and the small
## echoes allocate, site by site, in heap objects and bytes — the 1,001-host
## fat tree, one replica of loaded-grid's six transport x qdisc trials, then
## two replicas of echo-small's 20-cell grid — and what the fat tree costs
## to build idle, every allocation sampled (docs/PERFORMANCE.md "Capturing
## a profile"). cmd/alloccensus/testdata/<shape>.golden pins each; `go test
## ./cmd/alloccensus -update` rewrites them after a deliberate change
alloc-census:
	$(GO) run ./cmd/alloccensus -hosts 1001
	$(GO) run ./cmd/alloccensus -shape loaded
	$(GO) run ./cmd/alloccensus -shape echo
	$(GO) run ./cmd/alloccensus -shape idle

## tables: regenerate every table and figure of the paper's evaluation
tables:
	$(GO) run ./cmd/tables

## load-smoke: a 16-client fan-in under both PCB organizations (what CI runs)
load-smoke:
	timeout $(SMOKE_DEADLINE) $(GO) run ./cmd/load -workload fanin -hosts 17 -reqs 4 -compare -seed 1994 -parallel 2 -json > /dev/null

## load-scale-smoke: a 1024-host fan-in on the fat-tree fabric under the
## race detector — the whole scale path (on-demand VC setup, trunk VCI
## allocation, streaming statistics, staggered starts) end to end (what
## CI runs). The stagger stays above the server's per-client service
## time so the smoke cannot drift into retransmission collapse.
load-scale-smoke:
	timeout $(SMOKE_DEADLINE) $(GO) run -race ./cmd/load -workload fanin -hosts 1024 -reqs 1 -hashpcb \
		-fabric fattree -stream on -stagger 5500 -json > /dev/null

## loaded-smoke: the congested-regime tier end to end under the race
## detector (what CI runs): both transports (TCP and reliable UDP)
## through the loaded fan-in study with RED on every egress port,
## Gilbert–Elliott burst loss, and heavy-tailed cross traffic.
loaded-smoke:
	timeout $(SMOKE_DEADLINE) $(GO) run -race ./cmd/load -workload loaded -hosts 6 -reqs 4 \
		-qdisc red -burstloss 0.002 -crosstraffic 2 -seed 1994 -json > /dev/null

## fuzz-flags: every command's FuzzFlags for 10 s: arbitrary argument
## vectors end in a run or a refusal naming a flag that was set (what CI
## runs). The commands are the cmd/*/main_test.go files; one without a
## FuzzFlags fails, since go test -fuzz passes a package with no target.
FLAG_COMMANDS = $(patsubst cmd/%/main_test.go,%,$(wildcard cmd/*/main_test.go))
fuzz-flags:
	for c in $(FLAG_COMMANDS); do \
		grep -q '^func FuzzFlags(' cmd/$$c/main_test.go || { echo "cmd/$$c: no FuzzFlags in main_test.go"; exit 1; }; \
		$(GO) test -run='^$$' -fuzz=FuzzFlags -fuzztime=10s -timeout 300s ./cmd/$$c/ || exit 1; done

## explore: the long half of the §4.2.1 error study, the multi-bit flips
## (bursts in a SAR-PDU, pairs of bits in the TCP segment), one echo a
## case; prints the counts README quotes. Minutes on two cores; CI does
## not run it.
explore:
	$(GO) test -tags explore -run '^TestExplore$$' -v -timeout 60m ./internal/core/

## docs-check: execute every command quoted in README.md and docs/ (smoke mode)
docs-check:
	timeout $(SMOKE_DEADLINE) $(GO) run ./cmd/docscheck README.md docs
