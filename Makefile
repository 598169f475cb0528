GO ?= go
FUZZTIME ?= 5s

.PHONY: check vet build test test-short lint fuzz-smoke chaos perfbench \
	telemetry-smoke trace-smoke concurrent-smoke bench-concurrent \
	bench-cache bench-multiplex bench-trace bench-placement bench-delta

## check: the tier-1 gate — vet, lint, build, race-enabled tests, the
## benchmark module's vet and tests, fuzz smoke, the concurrent race
## smoke, the end-to-end telemetry and distributed-tracing smokes, the
## verified-content-cache acceptance bench, the multiplexed-transport
## acceptance bench, the tracing-cost ablation, the sharded-fleet
## replica-selection bench, and the Merkle-delta replication bench.
check: vet lint build test perfbench fuzz-smoke concurrent-smoke telemetry-smoke trace-smoke bench-cache bench-multiplex bench-trace bench-placement bench-delta

## vet: the stock vet suite plus the two checks most relevant to the
## serving path, run explicitly so a vet default change cannot drop them.
vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -loopclosure ./...

## lint: the project-invariant analyzer suite (cmd/globedoclint),
## including the trustflow taint pass (unverified wire bytes must never
## reach a trusted sink) and the deadignore stale-suppression check;
## exits nonzero on any finding, so `check` fails on a new violation.
lint:
	GO=$(GO) sh scripts/lint.sh

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

test-short:
	$(GO) test -race -short ./...

## perfbench: vet and test the benchmark module. perfbench/ is a Go
## module of its own (replace globedoc => ../), so the root build and
## tests never compile it; this catches internal API changes that break
## it. Offline: dependencies resolve only through the replace.
perfbench:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) vet ./... && \
		GOFLAGS=-mod=mod GOPROXY=off GOWORK=off $(GO) test ./...

## fuzz-smoke: a short budget per fuzz target over the wire decoders.
## `go test -fuzz` accepts one target per invocation, hence one line each.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalIntegrityCertificate$$ -fuzztime=$(FUZZTIME) ./internal/cert/
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalNameCertificate$$ -fuzztime=$(FUZZTIME) ./internal/cert/
	$(GO) test -run=^$$ -fuzz=FuzzParseHybrid$$ -fuzztime=$(FUZZTIME) ./internal/document/
	$(GO) test -run=^$$ -fuzz=FuzzExtractLinks$$ -fuzztime=$(FUZZTIME) ./internal/document/
	$(GO) test -run=^$$ -fuzz=FuzzLintSuppression$$ -fuzztime=$(FUZZTIME) ./internal/lint/
	$(GO) test -run=^$$ -fuzz=FuzzFrameDecode$$ -fuzztime=$(FUZZTIME) ./internal/transport/
	$(GO) test -run=^$$ -fuzz=FuzzVersionNegotiation$$ -fuzztime=$(FUZZTIME) ./internal/transport/
	$(GO) test -run=^$$ -fuzz=FuzzDeltaDecode$$ -fuzztime=$(FUZZTIME) ./internal/server/

## chaos: the seeded fault-injection suite (SEED overrides the schedule)
## plus the fleet degradation scenario (a bound replica dies mid-run and
## the selector must re-rank away), both under the race detector.
SEED ?= 20050404
chaos:
	$(GO) test -race -count=1 -run 'Chaos|FleetSelector' ./internal/deploy/ -seed $(SEED)

## concurrent-smoke: the concurrent fetch engine under the race detector —
## pool bounds, singleflight dedup, cancellation, leak regressions.
concurrent-smoke:
	$(GO) test -race -count=1 -run 'Concurrent|Pool|Cancel|Leak|ClosedLoop' \
		./internal/core/ ./internal/transport/ ./internal/workload/

## bench-concurrent: the closed-loop concurrency experiment + acceptance
## check (exactly one binding pipeline per cold OID; >= MIN_SPEEDUP x
## throughput at CONCURRENCY vs serial).
bench-concurrent:
	GO=$(GO) sh scripts/concurrency_bench.sh

## telemetry-smoke: boot services + proxy with -debug-addr, curl /debugz,
## validate the snapshot schema with cmd/globedoc-debugz.
telemetry-smoke:
	GO=$(GO) sh scripts/telemetry_smoke.sh

## trace-smoke: boot services + object server + proxy (race-enabled
## builds), fetch one object end to end, and assert a single distributed
## trace stitches across the proxy and server span rings (>= 10 spans,
## process-boundary marker) with replica health samples on /debugz.
trace-smoke:
	GO=$(GO) sh scripts/trace_smoke.sh

## bench-cache: the verified-content-cache experiment + acceptance check
## (warm cached fetch >= MIN_SPEEDUP x faster than cold; byte-identical
## ablation with the cache disabled).
bench-cache:
	GO=$(GO) sh scripts/cache_bench.sh

## bench-multiplex: the batched-element-fetch experiment + acceptance
## check (cold 16-element fetch <= MAX_RATIO x cold single-element fetch
## over the v2 transport; byte-identical serial-RPC ablation).
bench-multiplex:
	GO=$(GO) sh scripts/multiplex_bench.sh

## bench-delta: the Merkle-delta replication experiment + acceptance
## check (a one-element update to the 64-element document moves >=
## MIN_RATIO x fewer bytes over obj.getdelta than a full pull; the
## full-pull ablation replica ends byte-identical).
bench-delta:
	GO=$(GO) sh scripts/delta_bench.sh

## bench-trace: the tracing-cost ablation + acceptance check (cold-fetch
## p50 at sample rate 1.0 within MAX_RATIO of the -trace-sample 0
## ablation; spans really exported / really dropped per phase).
bench-trace:
	GO=$(GO) sh scripts/trace_bench.sh

## bench-placement: the sharded-fleet replica-selection experiment +
## acceptance check (health-ranked selector cold and warm fetch p99 at
## most MAX_RATIO x the location-order ablation; byte-identical
## ablation).
bench-placement:
	GO=$(GO) sh scripts/placement_bench.sh
