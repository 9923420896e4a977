GO ?= go
FUZZTIME ?= 10s

.PHONY: check build test race vet lint lint-json cover fuzz-smoke bench bench-smoke bench-module-test bench-concurrent bench-json bench-append bench-init metrics-smoke

## check: the full gate — vet, the project linter, build everything, and
## run the test suite under the race detector. CI and pre-commit should
## run this.
check: vet lint build race

## lint: the project's custom static-analysis suite — the AST layer
## (ctxpoll, snapshotmut, maporder, droppederr, atomicload) plus the
## dataflow layer (poolpair, chunkalias, hotalloc, stalesuppress) built
## on shared function summaries. Zero findings required; suppress
## individual lines with //lint:ignore <analyzer> <reason> — but note a
## directive that suppresses nothing is itself a stalesuppress finding.
## -time reports load/analyze wall time to stderr so regressions in the
## parallel driver are visible in every run.
lint:
	$(GO) run ./cmd/tabula-lint -time ./...

## lint-json: the same suite with machine-readable output; CI uses this
## to attach a findings artifact when the gate fails.
lint-json:
	$(GO) run ./cmd/tabula-lint -json ./...

## cover: per-package statement coverage summary.
cover:
	$(GO) test -cover ./...

## fuzz-smoke: run every fuzz target for FUZZTIME (default 10s) each —
## long enough to catch shallow parser and query-path panics, short
## enough for CI. Go allows one -fuzz pattern per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzParseValue$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzQueryByValues$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzAppendBatch$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzKeyRange$$' -fuzztime $(FUZZTIME) ./internal/loss
	$(GO) test -run '^$$' -fuzz '^FuzzDryRunChunked$$' -fuzztime $(FUZZTIME) ./internal/cube
	$(GO) test -run '^$$' -fuzz '^FuzzNearestDistance$$' -fuzztime $(FUZZTIME) ./internal/geo
	$(GO) test -run '^$$' -fuzz '^FuzzCoverSpeculative$$' -fuzztime $(FUZZTIME) ./internal/samgraph
	$(GO) test -run '^$$' -fuzz '^FuzzCRC32Combine$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeQueryBody$$' -fuzztime $(FUZZTIME) ./internal/server

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

## bench-smoke: compile and run every benchmark exactly once so bench
## targets can't rot; CI runs this after the test gate.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-module-test: bench/ is a module of its own, so `go test ./...`
## at the root never compiles it; this builds and tests it against the
## working tree, which is what catches a server-API change that breaks
## the benchmark.
bench-module-test:
	cd bench && $(GO) test ./...

## bench-concurrent: the snapshot design's headline numbers — lock-free
## query throughput with and without a concurrent appender.
bench-concurrent:
	$(GO) test -run XXX -bench 'BenchmarkConcurrentQuery' .

## bench-json: machine-readable initialization stage timings at a fixed
## seed and scale, swept over worker counts, written to BENCH_init.json.
bench-json:
	$(GO) run ./cmd/tabula-bench -init-json BENCH_init.json -rows 30000 -seed 42 -workers 1,2,4,8

## metrics-smoke: boot a real tabula-server, scrape GET /v1/metrics, and
## fail on a non-200 status or an empty exposition — the end-to-end
## "is the observability surface actually wired" check CI runs.
metrics-smoke:
	./scripts/metrics_smoke.sh

## bench-init: the dry-run scan kernels — the vectorized path (chunked
## key packing, dense-slot accumulators, columnar loss kernels) against
## the retained scalar ablation, with allocation counts.
bench-init:
	$(GO) test -run '^$$' -bench 'BenchmarkDryRunScan' -benchmem ./internal/cube

## bench-append: machine-readable append-maintenance numbers — append
## latency and warm-cache retention across appends at S=1 (monolithic
## baseline) vs sharded — written to BENCH_append.json.
bench-append:
	$(GO) run ./cmd/tabula-bench -append-json BENCH_append.json -rows 30000 -seed 42
