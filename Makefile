GO ?= go

.PHONY: all build test test-race vet vet-e2ebench fmt check ci bench-store bench-vclock bench-fig4 bench-obs bench-crdt bench-fanout bench-net bench-tree bench-partial

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The crdt, store, dc, edge, obs, wal, simnet, transport, wire, group and
# epaxos packages carry the concurrency-heavy code (sealed snapshots shared
# across reader goroutines with COW forks, sharded store locks, background
# base advancement, ClockSI 2PC, lock-free edge stats, the event bus, the
# group-commit WAL writer, the staged DC write pipeline — including the
# ≥8-committer convergence test — the interest-sharded push fan-out with its
# multicast trees (relay crash/repair tests), simnet's pooled
# multi-destination scheduler, the TCP mesh's refcounted frame buffers,
# corked per-conn loops and pending-call table, the replication mesh's
# per-bucket interest/stability vectors, and the peer-group / EPaxos-style
# quorum machinery); run them under the race detector on every check.
test-race:
	$(GO) test -race ./internal/crdt ./internal/store ./internal/dc ./internal/edge ./internal/obs ./internal/wal ./internal/simnet ./internal/transport ./internal/transport/tcp ./internal/wire ./internal/bin ./internal/group ./internal/epaxos ./internal/replication

vet:
	$(GO) vet ./...

# The end-to-end benchmark is a nested module (e2ebench/go.mod) that the
# root ./... patterns skip; vetting it also compiles it against the current
# dc and core APIs.
vet-e2ebench:
	$(GO) -C e2ebench vet ./...

# Every Go file, the nested e2ebench module included, must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

check: fmt build vet vet-e2ebench test test-race

# The continuous-integration gate: static checks, racy packages under the
# race detector, then everything else.
ci: fmt vet vet-e2ebench test-race build test

# Read-path microbenchmarks: materialisation cache on/off over journal
# depths, parallel readers over shards, incremental advancing-cut reads.
bench-store:
	$(GO) test -run xxx -bench BenchmarkStore -benchmem ./internal/store

bench-vclock:
	$(GO) test -run xxx -bench BenchmarkVector -benchmem ./internal/vclock

# Repository-level figure benchmarks (reduced configurations).
bench-fig4:
	$(GO) test -run xxx -bench BenchmarkFig4 -benchtime 3x .

# Instrumentation overhead on the cached read path: obs=false vs obs=true
# must stay within a few percent of each other (see DESIGN.md
# § Observability).
bench-obs:
	$(GO) test -run xxx -bench BenchmarkStoreReadObs -benchmem ./internal/store

# The DC push fan-out: interest-sharded (one filter pass and one sealed
# shared frame per shard, bounded worker pool) at 1k/10k/100k Zipf-skewed
# subscribers, printing delivered-txs/s, allocations per delivered tx and
# frame sharing. Acceptance requires zero delivery-order/interest
# violations. The retired per-subscriber A/B is recorded in
# BENCH_fanout.json.
bench-fanout:
	$(GO) run ./cmd/colony-bench fanout

# A/B of the RGA read/materialisation hot path: legacy recursive-tree kernel
# with deep-clone reads vs the indexed COW kernel with sealed snapshots and
# cursor-resolved typing bursts, at 1k/10k/100k elements, plus the zero-alloc
# cached snapshot read. Records the comparison to BENCH_crdt.json at the repo
# root; acceptance requires >=2x at 10k and 0 allocs/op on the cached read.
bench-crdt:
	$(GO) test -run TestRecordCRDTBench -count=1 -v ./internal/crdt -record-crdt

# A/B of the transport substrate: replication throughput (commit burst to
# cluster-wide convergence, 3 DCs) on simnet vs the real TCP mesh on
# loopback with the binary wire codec. Records the comparison to
# BENCH_net.json at the repo root.
bench-net:
	$(GO) test -run TestRecordNetBench -count=1 -v ./internal/transport/tcp -record-net

# A/B of the push multicast layer: direct sharded fan-out to subscribers
# without the Relay capability (one frame per subscriber per flush) vs
# two-level multicast trees over relay-capable subscribers (one frame per
# subtree root, relays re-fan the sealed frame to ≤degree children,
# cursor/repair fallback on relay failure) at 1k/10k/100k subscribers with
# workspace-structured interest. Records the comparison to BENCH_tree.json
# at the repo root; acceptance requires >=5x fewer DC-sent units at 100k,
# delivered tx/s within 20% of direct, and zero violations in both modes.
bench-tree:
	$(GO) run ./cmd/colony-bench tree

# A/B of the replication scope: full mesh (every DC receives every payload)
# vs interest-scoped partial replication (per-bucket replication vectors,
# payload-stripped stubs for unwanted buckets, on-demand backfill) at
# 64/512/4096-bucket universes with a shared Zipf hot set and per-DC cold
# thirds. Records the comparison to BENCH_partial.json at the repo root;
# acceptance requires >=5x fewer WAN units at 4096 buckets, per-DC residency
# proportional to the interest share, tx/s within 10% of full, and zero
# convergence violations in both modes.
bench-partial:
	$(GO) run ./cmd/colony-bench partial
