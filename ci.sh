#!/bin/sh
# CI gate: everything here must pass before a change lands. Kept to the Go
# toolchain only — no external dependencies.
set -eux

go build ./...
go vet ./...
go test ./...
go test -race ./...

# Benchmark lane: perfbench/ is a Go module of its own (it replaces pardis
# with ../), so the root ./... above never compiles it; vet and test it
# here so an internal API change cannot break the benchmark unnoticed.
(cd perfbench && GOPROXY=off go vet . && GOPROXY=off go test -count=1 .)

# Smoke-run the paper-figure harness and keep its JSON summary as a CI
# artifact for regression diffing. The default figure set includes the
# transfer-engine experiments (schedule cache, segment fan-out, pipelined
# dispatch throughput), so their points land in the same summary.
go run ./cmd/pardis-bench -quick -json > bench-summary.json

# One-shot pass over the transfer-engine micro-benchmarks so a broken
# concurrent path fails CI even when the unit tests are green.
go test -run NONE -bench 'ScheduleCache|SegmentFanout|SingleDispatchPipelined' -benchtime 1x .

# Same for the tree collectives and the single-frame dispatch agreement.
go test -run NONE -bench 'Bcast|AllGather|Barrier' -benchtime 1x ./internal/rts
go test -run NONE -bench 'DispatchAgreement' -benchtime 1x ./internal/poa

# Fuzz lane: every pgiop decoder on arbitrary bytes for a fixed budget —
# an error or a value, never a panic. (`go test ./...` above already replays
# the committed seed corpus in internal/pgiop/testdata/fuzz.)
go test ./internal/pgiop -run '^$' -fuzz FuzzDecodeFrame -fuzztime 10s

# Fault lane: every fault-injection / deadline / recovery test under the
# race detector (their whole point is timing races between sweeps, retries,
# late replies, and peer death).
go test -race -run Fault -count=1 ./internal/nexus ./internal/rts ./internal/poa

# Seeded chaos soak: the dead-rank and lossy-network scenarios repeated
# under fixed injection seeds. Deterministic schedules, so a failure here
# reproduces with the same -count and seed corpus; includes the
# goroutine-leak check after every iteration.
go test -run FaultChaosSoak -count=20 ./internal/poa

# Fan-in lane: the connection-scale figure (client channels multiplexed
# over shared sockets vs one socket per client) as its own JSON artifact,
# plus the end-to-end gate asserting 10k clients ride few connections with
# a >= 10x per-connection resident-memory advantage over the baseline.
go run ./cmd/pardis-bench -fig fanin -quick -json > fanin-summary.json
go test -run TestFaninGate -count=1 .

# Tuner lane: the self-tuning grid (every fixed collective algorithm vs
# the online selector, per payload x P cell) as a JSON artifact, plus the
# deterministic gate asserting tuned-within-5%-of-best on every cell and
# strictly-beats-worst on the crossover cells.
go run ./cmd/pardis-bench -fig tuner -quick -json > tuner-summary.json
go test -run TestTunerGate -count=1 .

# Stream lane: staged vs chunked segment transfer as a JSON artifact, plus
# the gate asserting bounded memory (peak per-move encoder residency <= 2x
# the chunk on a 64 MiB transfer) and no small-payload regression (<= 64 KiB
# round trips within 5% of the unchunked baseline).
go run ./cmd/pardis-bench -fig stream -quick -json > stream-summary.json
go test -run TestStreamGate -count=1 .

# Serve lane: the replicated-group serving figure (healthy / replica-killed
# / overload with and without POA admission control) as a JSON artifact,
# plus the gate asserting >= 99% idempotent completion through a mid-run
# kill, dead-member expiry within the registry TTL, and shed p99 strictly
# under the no-admission p99. The chaos soak repeats the wall-clock
# kill/failover scenario under the race detector with the leak check.
go run ./cmd/pardis-bench -fig serve -quick -json > serve-summary.json
go test -run TestServeGate -count=1 .
go test -race -run TestGroupChaosFailoverSoak -count=3 .

# Observability lane: a tracing-enabled bench run must complete and export
# a non-empty Chrome trace (the 4-rank SPMD section runs first, so its
# spans are always captured); the overhead guard must hold — allocs/op
# always, ns/op too under PARDIS_OVERHEAD_GATE=1 — and every metric name
# registered anywhere in the linked tree must be unique and well-formed.
go run ./cmd/pardis-bench -fig transfer -quick -trace trace.json > /dev/null
test -s trace.json
PARDIS_OVERHEAD_GATE=1 go test -run 'TestTracingOverheadGate|TestMetricNameHygiene' -count=1 .

# Obs-plane lane: the flight-recorder / federation figure (recording
# overhead by interesting fraction, tail-retention recall under a mixed
# load, federation-page scrape cost) as a JSON artifact, plus the gate
# asserting >= 95% of interesting traces retained, the boring bulk
# recycled, and the retained set within its configured bound.
go run ./cmd/pardis-bench -fig obs -quick -json > obs-summary.json
go test -run TestObsPlaneGate -count=1 .
