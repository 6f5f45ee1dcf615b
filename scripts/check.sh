#!/bin/sh
# Full verification: vet, build, a gofmt guard (gofmt -l lists no file),
# seven structural guards (the retired manifest + pack-file archive
# format is named in no non-test file; only the harness-cell builder
# internal/cluster/cell.go wires replicas to a gateway; internal/sim is
# imported only by the paper-shape reproductions; internal/epochcache is
# the only cache — the four types it replaced and
# container/list stay gone; the gateway has one admission path, the
# overload.Limiter — the fixed semaphore's knobs stay gone; the DM has
# one cached read path — the brownout hook, the DM's stale-epoch mode and
# the farm's bulk door stay gone; and the dead-weight audit, TestDeadWeightAudit
# in deadweight_test.go, which runs inside go test ./... with five classes:
# (i) exported code no file references, (ii) option fields no code sets,
# (iii) names only their own package's tests use, (iv) funcs and methods
# no binary reaches, (v) tables that reached code writes and never reads;
# (i) and (ii) must be empty, and (iii), (iv) and (v) must match the
# shrink-only allow-list testdata/deadweight.allow), the
# full test suite (which includes the harness-cell builder's tests and the
# scaled-down Figure 5 live and sharded sweeps with their bit-identical
# oracle), a short-mode race lane (which carries the
# decoded-unit cache's oracle and warm-path safety tests) plus ten rounds
# of the cache's single-flight tests and of the decoded-unit cache's
# concurrent single-decode test, the crash-recovery and network-chaos
# harnesses under -race (both enumerate sharded schedules too; torture
# includes the cross-shard batch and transaction crash sites and the lake
# journal/compaction/GC ones, and chaos the ten lake storm schedules), one iteration each of the parallel query,
# browse-shape query, redirect round-trip (BenchmarkRedirectRoundTrip),
# raw-unit pack (BenchmarkPackGz), partitioned-view
# (BenchmarkPartitionViews) and ingest benchmarks (smoke-checks the
# concurrent read, index-probe/top-k/ordered-walk, /dm/ JSON hop,
# gzip-FITS codec, wavelet view and fast write paths), a miniature run of
# every processing-farm phase (work stealing, preemption, hedging,
# epoch-keyed memoization with its bit-identity oracle) under -race, a
# short-mode stampede smoke (the adaptive overload stack under a 10x
# open-loop spike), and short runs of the WAL, planner equivalence (index
# probe, bounded top-k and ordered walk against a brute-force oracle),
# dbnet wire-decode (including the statusOverload response parser),
# columnar segment, shard map/merge and lake journal fuzz targets.
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> gofmt (no unformatted .go file)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then echo "$unformatted"; exit 1; fi

echo "==> one archive engine (no manifest/pack-file names outside tests)"
if grep -rnE 'MANIFEST\.crc|packs/p' --include='*.go' --exclude='*_test.go' .; then exit 1; fi

echo "==> one harness cell (only internal/cluster/cell.go wires replicas to a gateway)"
if grep -rl 'StartReplica(' --include='*.go' internal | xargs grep -l 'NewGateway(' | grep -v '^internal/cluster/cell\.go$'; then exit 1; fi

echo "==> internal/sim only behind the Figure 4/5 and Table 1 paper-shape reproductions"
if grep -rl '"repro/internal/sim"' --include='*.go' --exclude='*_test.go' . | grep -vE '^\./internal/bench/(browse|processing)\.go$'; then exit 1; fi

echo "==> one cache (internal/epochcache; the four retired cache types and container/list stay gone)"
if grep -rnE 'type (queryCache|memoCache|staleCache|itemCache)\b|"container/list"' --include='*.go' internal/; then exit 1; fi

echo "==> one admission path (the gateway's fixed semaphore and its knobs stay gone; a fixed cap is a limiter with Min = Max)"
if grep -rnE 'MaxInflight|queueTimeout|shedRetryAfter' --include='*.go' --exclude='*_test.go' internal cmd; then exit 1; fi

echo "==> one DM read path (the brownout hook, the DM's stale-epoch mode and the farm's bulk door stay gone)"
if grep -rnE 'SetServeStale|StageActions|SetBrownoutHook|freshQuery|readFresh|SetShedBulk' --include='*.go' --exclude='*_test.go' internal cmd; then exit 1; fi

echo "==> go test (includes the dead-weight audit, TestDeadWeightAudit)"
go test ./...

echo "==> go test -race -short (race lane)"
go test -race -short ./...

echo "==> epochcache single-flight, decoded-unit cache: concurrent misses load once (-race, 10 rounds)"
go test -race -count=10 -run 'TestDo' ./internal/epochcache/
go test -race -count=10 -run 'TestRawPhotonsConcurrentMissesDecodeOnce' ./internal/dm/

echo "==> processing-farm smoke (stealing, preemption, hedging, memoization; -race)"
go test -race -count=1 -run 'TestTablesScaleSmoke' ./internal/bench/

echo "==> crash-recovery torture harness (-race)"
go test -race -count=1 ./internal/torture/

echo "==> lake torture lane (short: sampled crash sites x all modes)"
go test -race -short -count=1 -run 'TestLake' ./internal/torture/
go test -race -count=1 ./internal/lake/

echo "==> network chaos harness (-race)"
go test -race -count=1 ./internal/chaos/

echo "==> stampede smoke (adaptive overload control under a 10x spike; -race)"
go test -race -short -count=1 -run 'TestStampede' ./internal/chaos/

echo "==> parallel query benchmark (1 iteration)"
go test -run '^$' -bench BenchmarkQueryParallel -benchtime=1x .

echo "==> browse-shape query benchmark (1 iteration)"
go test -run '^$' -bench BenchmarkBrowseShardQueries -benchtime=1x ./internal/minidb/

echo "==> redirect round-trip benchmark (1 iteration)"
go test -run '^$' -bench BenchmarkRedirectRoundTrip -benchtime=1x ./internal/dm/

echo "==> raw-unit pack benchmark (1 iteration)"
go test -run '^$' -bench BenchmarkPackGz -benchtime=1x ./internal/telemetry/

echo "==> partitioned wavelet view benchmark (1 iteration)"
go test -run '^$' -bench BenchmarkPartitionViews -benchtime=1x ./internal/wavelet/

echo "==> ingest benchmark (1 iteration)"
go test -run '^$' -bench BenchmarkIngest -benchtime=1x .

# -fuzz accepts a pattern matching exactly one target, so each gets its own
# short smoke run over the checked-in corpus plus fresh mutations. CI can
# shorten (or lengthen) the runs via FUZZTIME without editing this script.
FUZZTIME="${FUZZTIME:-10s}"
for spec in \
	"./internal/minidb/ FuzzDecodeWalOp" \
	"./internal/minidb/ FuzzDecodeValue" \
	"./internal/minidb/ FuzzReadWal" \
	"./internal/minidb/ FuzzPlannerEquivalence" \
	"./internal/dbnet/ FuzzReadFrame" \
	"./internal/dbnet/ FuzzDispatch" \
	"./internal/dbnet/ FuzzParseResponse" \
	"./internal/colseg/ FuzzDecodeSegment" \
	"./internal/shard/ FuzzDecodeShardMap" \
	"./internal/shard/ FuzzMergeReplies" \
	"./internal/lake/ FuzzDecodeJournal"; do
	pkg=${spec% *}
	target=${spec#* }
	echo "==> fuzz smoke: $pkg $target ($FUZZTIME)"
	go test -run '^$' -fuzz "^$target\$" -fuzztime "$FUZZTIME" "$pkg"
done

echo "==> OK"
