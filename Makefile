# Developer entry points mirroring .github/workflows/ci.yml — `make ci`
# runs exactly what CI runs.

GO ?= go

.PHONY: build test race vet analyze staticcheck govulncheck lint fmt-check docs-lint bench bench-smoke bench-scc bench-frozen bench-sharded perfbench-smoke fuzz-smoke cover ci

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
# serving command registers must be mentioned in OPERATIONS.md, so
# godoc, the markdown layer and the CLI docs can't silently rot.
# Example* functions are compiled and output-verified by `make test`
# like any other test.
DOC_PKGS = .,internal/graph,internal/serve,internal/store,internal/view,internal/core,internal/pattern,internal/simulation,internal/analysis
FLAG_CMDS = cmd/gvserve
docs-lint:
	$(GO) run ./cmd/doccheck -pkgs '$(DOC_PKGS)' -flags '$(FLAG_CMDS)' -flagsdoc OPERATIONS.md README.md ARCHITECTURE.md OPERATIONS.md ROADMAP.md

# Full benchmark sweep: every Fig. 8 figure, the parallel engine worker
# sweeps and the store's WAL/recovery/checkpoint micro-benchmarks. Slow;
# see bench-smoke for the CI-sized subset. The serving benchmark is
# perfbench (bash perfbench/run.sh; README.md §Performance).
bench:
	$(GO) test -run 'BenchmarkNone' -bench . -benchmem ./...

# The CI bench-smoke job, step for step: one iteration of the Fig. 8(a)
# figure runner, the parallel materialize/answer sweeps, and the SCC,
# frozen and sharded sweeps at the GOMAXPROCS CI sets for them.
bench-smoke:
	$(GO) test -run 'BenchmarkNone' -bench 'Fig8a' -benchtime 1x ./...
	$(GO) test -run 'BenchmarkNone' -bench 'MaterializeParallel|AnswerParallel' -benchtime 1x ./...
	GOMAXPROCS=4 $(GO) test -run 'BenchmarkNone' -bench 'MatchJoinSCCParallel' -benchtime 1x ./...
	GOMAXPROCS=4 $(GO) test -run 'BenchmarkNone' -bench 'SimFrozen|AnswerFrozen' -benchtime 1x ./...
	GOMAXPROCS=4 $(GO) test -run 'BenchmarkNone' -bench 'AnswerSharded|ShardSplit' -benchtime 1x ./...

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

ci: build vet analyze fmt-check docs-lint race bench-smoke perfbench-smoke fuzz-smoke cover lint
