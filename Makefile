# Developer entry points mirroring .github/workflows/ci.yml — `make ci`
# runs exactly what CI runs.

GO ?= go

.PHONY: build test race vet analyze staticcheck govulncheck lint fmt-check docs-lint loadtest bench bench-smoke bench-scc bench-frozen bench-sharded bench-json bench-json-smoke bench-diff bench-maint bench-maint-smoke bench-wal bench-wal-smoke perfbench-smoke fuzz-smoke cover ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race tests pin GOMAXPROCS>=4 so the SCC-parallel fixpoint waves truly
# interleave even when the host (or a dev container) exposes one CPU.
race:
	GOMAXPROCS=4 $(GO) test -race ./...

vet:
	$(GO) vet ./...

# Contract analyzers (cmd/gvcheck): the four project-specific checkers —
# readeralias, scratchescape, mutexguard, snapshotonce — that
# mechanically enforce the Reader aliasing, scratch-escape, mutex-guard
# and RCU-snapshot invariants (ARCHITECTURE.md §Invariants & static
# analysis). The vettool is built once, then go vet drives it per
# package — test files included — with prebuilt export data, so the
# sweep is fast and fully offline. Zero findings is the merge bar;
# justified exceptions carry //gvcheck:<directive> <why> in source.
GVCHECK = bin/gvcheck
analyze:
	$(GO) build -o $(GVCHECK) ./cmd/gvcheck
	$(GO) vet -vettool=$(abspath $(GVCHECK)) ./...

# Third-party linters, pinned by module version and run via `go run
# tool@version` so nothing is vendored or installed. Both need the
# module proxy on first use, so the targets probe availability and skip
# with a notice when offline (CI always runs them for real).
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@v0.5.1
staticcheck:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./...; \
	else \
		echo "staticcheck unavailable (offline module cache); skipping"; fi

GOVULNCHECK = golang.org/x/vuln/cmd/govulncheck@v1.1.3
govulncheck:
	@if $(GO) run $(GOVULNCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK) ./...; \
	else \
		echo "govulncheck unavailable (offline module cache); skipping"; fi

lint: staticcheck govulncheck

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Docs lint (cmd/doccheck, stdlib only): every relative markdown link —
# file and #anchor — must resolve, every exported symbol of the facade
# and contract packages must carry a doc comment, and every flag the
# serving/load commands register must be mentioned in OPERATIONS.md, so
# godoc, the markdown layer and the CLI docs can't silently rot.
# Example* functions are compiled and output-verified by `make test`
# like any other test.
DOC_PKGS = .,internal/graph,internal/serve,internal/store,internal/view,internal/core,internal/pattern,internal/simulation,internal/analysis
FLAG_CMDS = cmd/gvserve,cmd/gvload
docs-lint:
	$(GO) run ./cmd/doccheck -pkgs '$(DOC_PKGS)' -flags '$(FLAG_CMDS)' -flagsdoc OPERATIONS.md README.md ARCHITECTURE.md OPERATIONS.md ROADMAP.md

# Closed-loop load test against an in-process gvserve (cmd/gvload
# -self): paced arrivals at LOAD_QPS for LOAD_DURATION with a
# background update+publish writer, client-side p50/p95/p99 merged into
# the $(LOAD_JSON) benchmark trajectory. See OPERATIONS.md §gvload.
LOAD_QPS ?= 200
LOAD_DURATION ?= 10s
LOAD_JSON ?= BENCH_PR6.json
loadtest:
	$(GO) run ./cmd/gvload -self -dataset youtube -nodes 20000 -edges 80000 \
		-qps $(LOAD_QPS) -duration $(LOAD_DURATION) -write-every 500ms \
		-json $(LOAD_JSON)

# Maintenance benchmark: record the serving trajectory into
# $(MAINT_JSON) and gate the read path against $(MAINT_BASE). Three
# read-only runs reproduce the ServeQuery qps sweep (same series names
# as BENCH_PR6.json, so `benchjson -diff` compares them directly), then
# one mixed 95/5 read/write run per maintenance mode records read/write
# percentiles and the per-batch view-maintenance cost scraped from
# gvserve_maintenance_* — mode=delta vs mode=remat is the
# delta-propagation-vs-full-rematerialize comparison. The final diff
# fails on a >20% regression in any shared (read-path) series; the
# mixed and maintenance series are new in $(MAINT_JSON) and reported
# informationally. See OPERATIONS.md §gvload.
MAINT_JSON ?= BENCH_PR8.json
MAINT_BASE ?= BENCH_PR6.json
MAINT_DURATION ?= 10s
MAINT_MIX ?= 0.05
bench-maint:
	for q in 100 200 400; do \
		$(GO) run ./cmd/gvload -self -dataset youtube -nodes 20000 -edges 80000 \
			-qps $$q -duration $(MAINT_DURATION) -write-every 500ms \
			-json $(MAINT_JSON) || exit 1; \
	done
	for mode in delta remat; do \
		$(GO) run ./cmd/gvload -self -dataset youtube -nodes 20000 -edges 80000 \
			-qps 200 -duration $(MAINT_DURATION) -write-mix $(MAINT_MIX) -write-batch 4 \
			-maint $$mode -json $(MAINT_JSON) || exit 1; \
	done
	$(GO) run ./cmd/benchjson -diff -threshold 0.20 $(MAINT_BASE) $(MAINT_JSON)

# CI-sized maintenance smoke: one short mixed run per mode into a
# scratch file, proving the write path, the metrics scrape and both
# maintenance modes work end to end. No regression gate (runs are too
# short to be stable).
bench-maint-smoke:
	@rm -f .bench-maint.json
	for mode in delta remat; do \
		$(GO) run ./cmd/gvload -self -dataset youtube -nodes 5000 -edges 20000 \
			-qps 100 -duration 2s -write-mix 0.1 -write-batch 4 \
			-maint $$mode -json .bench-maint.json || exit 1; \
	done
	@rm -f .bench-maint.json

# Full benchmark sweep: every Fig. 8 figure plus the parallel engine
# worker sweeps. Slow; see bench-smoke for the CI-sized subset.
bench:
	$(GO) test -run 'BenchmarkNone' -bench . -benchmem ./...

# The CI smoke subset: one iteration of the Fig. 8(a) figure runner and
# the parallel materialize/answer sweeps.
bench-smoke:
	$(GO) test -run 'BenchmarkNone' -bench 'Fig8a' -benchtime 1x ./...
	$(GO) test -run 'BenchmarkNone' -bench 'MaterializeParallel|AnswerParallel' -benchtime 1x ./...
	$(GO) test -run 'BenchmarkNone' -bench 'SimFrozen|AnswerFrozen' -benchtime 1x ./...

# The SCC-parallel MatchJoin fixpoint worker sweep on multi-SCC necklace
# patterns. GOMAXPROCS=4 makes the speedup observable in CI even though
# dev containers may expose a single CPU.
bench-scc:
	GOMAXPROCS=4 $(GO) test -run 'BenchmarkNone' -bench 'MatchJoinSCCParallel' -benchmem ./...

# Frozen-vs-mutable backend A/B: direct simulation (the mutex-free label
# index on the seeding loop) and the materialize+answer pipeline worker
# sweep over both graph.Reader backends.
bench-frozen:
	$(GO) test -run 'BenchmarkNone' -bench 'SimFrozen|AnswerFrozen' -benchmem ./...

# Sharded-backend sweep: the materialize+answer pipeline over shard
# counts (pre-partitioned snapshots) plus the O(|V|+|E|) splitter.
# GOMAXPROCS=4: shard-parallel seeding needs real cores to show.
bench-sharded:
	GOMAXPROCS=4 $(GO) test -run 'BenchmarkNone' -bench 'AnswerSharded|ShardSplit' -benchmem ./...

# Benchmark trajectory: run the Fig. 8 suite plus the
# frozen/sharded/SCC/micro sweeps with -benchmem and record op name →
# ns/op, B/op, allocs/op in BENCH_PR5.json via cmd/benchjson.
# Append-friendly: all runs are concatenated before conversion, and
# repeated names keep the fastest run — hence -count above 1, which
# keeps single-pass scheduler noise out of the recorded trajectory
# (bench-diff gates on it). See README.md §Performance for how to
# read/extend the BENCH_*.json trajectory.
# Plain redirects (no tee): a failing benchmark run must fail the
# target — a pipeline would hide go test's exit status.
BENCH_JSON ?= BENCH_PR5.json
bench-json:
	@rm -f .bench-json.tmp
	$(GO) test -run 'BenchmarkNone' -bench 'Fig8' -benchtime 1x -count 3 -benchmem . >> .bench-json.tmp
	$(GO) test -run 'BenchmarkNone' -bench 'MatchSimulation|MatchJoin$$|MatchJoinSCCParallel|SimFrozen|AnswerFrozen|AnswerSharded|ShardSplit|MaterializeViews' -benchtime 300ms -count 2 -benchmem . >> .bench-json.tmp
	@cat .bench-json.tmp
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON) < .bench-json.tmp
	@rm -f .bench-json.tmp

# Benchmark trajectory diff: rerun the bench-json suite into a scratch
# trajectory and gate it against a recorded baseline —
# `make bench-diff BASE=BENCH_PR4.json` reports per-benchmark ns/op and
# allocs/op deltas and fails on any >20% regression of a benchmark
# present in both files. Set NEW to diff an existing file instead of
# rerunning.
BASE ?= BENCH_PR4.json
NEW ?=
bench-diff:
ifeq ($(NEW),)
	$(MAKE) bench-json BENCH_JSON=.bench-diff.json
	$(GO) run ./cmd/benchjson -diff -threshold 0.20 $(BASE) .bench-diff.json; \
		st=$$?; rm -f .bench-diff.json; exit $$st
else
	$(GO) run ./cmd/benchjson -diff -threshold 0.20 $(BASE) $(NEW)
endif

# The CI-sized trajectory: the acceptance benchmarks only (SCC fixpoint,
# frozen pipeline, sharded sweep), one short pass, uploaded as a
# workflow artifact.
bench-json-smoke:
	@rm -f .bench-json.tmp
	$(GO) test -run 'BenchmarkNone' -bench 'MatchJoinSCCParallel|AnswerFrozen|AnswerSharded' -benchtime 100ms -benchmem . > .bench-json.tmp
	@cat .bench-json.tmp
	$(GO) run ./cmd/benchjson -out $(BENCH_JSON) < .bench-json.tmp
	@rm -f .bench-json.tmp

# Durability benchmark: WAL append ns/record per sync policy, crash
# recovery (decode + delta replay) per 100k records and the checkpoint
# cost, recorded into $(WAL_JSON) via benchjson; then two gvload
# sweeps. The first runs ephemeral (no -data-dir) under the same
# ServeQuery series names as earlier trajectories — the control the
# final diff gates against $(WAL_BASE), proving the store subsystem
# does not tax the read path (queries never touch the store). The
# second runs on a fresh -data-dir with fsync-per-record, recorded as
# its own ServeQueryDurable series (no earlier baseline): the honest
# price of the WAL in the write loop and a checkpoint per publish.
# StoreCheckpoint also matches StoreCheckpointDirtyFraction — the
# per-shard incremental checkpoint sweep (ckpt-bytes/op vs dirty
# fraction) — and RecoveryExtensions records the clean-tail boot with
# persisted extensions against the rematerialize-from-scratch control.
WAL_JSON ?= BENCH_PR10.json
WAL_BASE ?= BENCH_PR9.json
WAL_DURATION ?= 10s
bench-wal:
	@rm -f .bench-wal.tmp
	$(GO) test -run 'BenchmarkNone' -bench 'WALAppend|RecoveryReplay|RecoveryExtensions|StoreCheckpoint' -benchtime 300ms -count 2 -benchmem ./internal/store >> .bench-wal.tmp
	@cat .bench-wal.tmp
	$(GO) run ./cmd/benchjson -out $(WAL_JSON) < .bench-wal.tmp
	@rm -f .bench-wal.tmp
	for q in 100 200 400; do \
		$(GO) run ./cmd/gvload -self -dataset youtube -nodes 20000 -edges 80000 \
			-qps $$q -duration $(WAL_DURATION) -write-every 500ms \
			-json $(WAL_JSON) || exit 1; \
	done
	for q in 100 200 400; do \
		$(GO) run ./cmd/gvload -self -dataset youtube -nodes 20000 -edges 80000 \
			-qps $$q -duration $(WAL_DURATION) -write-every 500ms \
			-data-dir $$(mktemp -d) -wal-sync always \
			-name ServeQueryDurable -json $(WAL_JSON) || exit 1; \
	done
	# The gate protects the read path and the live WAL/recovery path.
	# -skip exempts the informational series: ServeQueryDurable was
	# recorded without a baseline by design (and now carries the
	# extension-persistence work per checkpoint).
	$(GO) run ./cmd/benchjson -diff -threshold 0.20 \
		-skip 'ServeQueryDurable' \
		$(WAL_BASE) $(WAL_JSON)

# CI-sized durability smoke: the store micro-benches one iteration each
# plus one short durable gvload run into a scratch trajectory.
bench-wal-smoke:
	@rm -f .bench-wal.json
	$(GO) test -run 'BenchmarkNone' -bench 'WALAppend|RecoveryReplay' -benchtime 1x ./internal/store
	$(GO) run ./cmd/gvload -self -dataset youtube -nodes 5000 -edges 20000 \
		-qps 100 -duration 2s -write-mix 0.1 -write-batch 4 \
		-data-dir $$(mktemp -d) -wal-sync 5ms -json .bench-wal.json
	@rm -f .bench-wal.json

# Serving-benchmark smoke: perfbench (its own module) runs every
# workload in --smoke mode against a freshly built gvserve, including
# the /query == /match == gv.Match answer gate, so the response encoder
# is checked end to end over HTTP. See perfbench/README.md.
perfbench-smoke:
	cd perfbench && $(GO) test ./...

# Run each native fuzz target briefly (the CI smoke; seed corpora under
# testdata/fuzz always run as plain tests via `make test`).
FUZZTIME ?= 15s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzShardRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzEquivalentPreds$$' -fuzztime $(FUZZTIME) ./internal/pattern
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotManifest$$' -fuzztime $(FUZZTIME) ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzParsePattern$$' -fuzztime $(FUZZTIME) ./internal/pattern
	$(GO) test -run '^$$' -fuzz '^FuzzParseUpdates$$' -fuzztime $(FUZZTIME) ./internal/serve

# Coverage profile + function summary (CI uploads coverage.out).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

ci: build vet analyze fmt-check docs-lint race bench-smoke perfbench-smoke lint
