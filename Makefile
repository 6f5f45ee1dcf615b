GO ?= go

.PHONY: build test race bench benchmark benchmark-compare bench-ingest bench-chaos bench-stampede bench-analytics bench-fig5sharded bench-timetravel bench-tablesscale torture chaos fuzz check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# benchmark runs the measurement spine (benchmark/README.md): all four
# standing workloads, unthrottled, writing benchmark/out/result-<seed>.json.
# This, not the bench-* paper-shape experiments below, is what a
# performance claim is a before/after on.
benchmark:
	bash benchmark/run.sh

# benchmark-compare diffs two result files, one row per metric x workload,
# and exits 1 on a breach: make benchmark-compare A=before.json B=after.json
benchmark-compare:
	$(GO) run ./benchmark -compare $(A) $(B)

# bench-ingest measures the fast ingest path (serial vs grouped vs
# pipeline, local and over dbnet) and records BENCH_tables.json.
bench-ingest:
	$(GO) run ./cmd/hedc-bench -exp tables -json .

# bench-chaos runs every network fault schedule as an experiment and
# records availability under chaos in BENCH_chaos.json.
bench-chaos:
	$(GO) run ./cmd/hedc-bench -exp chaos -json .

# bench-stampede runs the flare-alert stampede A/B (fixed semaphore +
# naive retries vs adaptive limiter + brownout ladder + hint-honoring
# clients under the same open-loop 10x spike) and records
# BENCH_stampede.json.
bench-stampede:
	$(GO) run ./cmd/hedc-bench -exp stampede -json .

# bench-analytics measures vectorized columnar scans against the
# row-at-a-time baseline on 1.2M synthetic events and records
# BENCH_analytics.json.
bench-analytics:
	$(GO) run ./cmd/hedc-bench -exp analytics -json .

# bench-timetravel measures as-of reads over the lake's commit journal
# (open + read latency by commit depth, the compaction/GC win, and a
# commit-replay oracle check) and records BENCH_lake.json.
bench-timetravel:
	$(GO) run ./cmd/hedc-bench -exp timetravel -json .

# bench-tablesscale measures the processing farm under concurrent mixed
# load (farm-size sweep, preemption and speculation A/B tails, epoch-keyed
# memoization with its bit-identity oracle) and records
# BENCH_tablesscale.json.
bench-tablesscale:
	$(GO) run ./cmd/hedc-bench -exp tablesscale -json .

# bench-fig5sharded measures the N-shard x M-replica cell against the
# single-shard Figure 5 ceiling and records BENCH_fig5sharded.json. The
# sweep hard-fails unless every scatter-gather result is bit-identical
# to a single-node oracle.
bench-fig5sharded:
	$(GO) run ./cmd/hedc-bench -exp fig5sharded -json .

# torture enumerates every crash site of the scripted workload under the
# race detector (see internal/torture).
torture:
	$(GO) test -race -count=1 -v ./internal/torture/

# chaos enumerates every network fault schedule against a live
# gateway+replicas+DB cell under the race detector (see internal/chaos).
# CHAOSTIME=2s holds each fault under workload for at least that long.
chaos:
	$(GO) test -race -count=1 -v ./internal/chaos/

# fuzz runs each WAL, dbnet wire, columnar segment, shard map/merge and
# lake journal fuzz target for 30s.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeWalOp$$' -fuzztime 30s ./internal/minidb/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeValue$$' -fuzztime 30s ./internal/minidb/
	$(GO) test -run '^$$' -fuzz '^FuzzReadWal$$' -fuzztime 30s ./internal/minidb/
	$(GO) test -run '^$$' -fuzz '^FuzzPlannerEquivalence$$' -fuzztime 30s ./internal/minidb/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 30s ./internal/dbnet/
	$(GO) test -run '^$$' -fuzz '^FuzzDispatch$$' -fuzztime 30s ./internal/dbnet/
	$(GO) test -run '^$$' -fuzz '^FuzzParseResponse$$' -fuzztime 30s ./internal/dbnet/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSegment$$' -fuzztime 30s ./internal/colseg/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeShardMap$$' -fuzztime 30s ./internal/shard/
	$(GO) test -run '^$$' -fuzz '^FuzzMergeReplies$$' -fuzztime 30s ./internal/shard/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeJournal$$' -fuzztime 30s ./internal/lake/

# check runs the full gate: vet, build, race tests (torture harness
# included), a one-iteration smoke run of the parallel query benchmark, and
# short fuzz runs.
check:
	sh scripts/check.sh
