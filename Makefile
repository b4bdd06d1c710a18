# Verification tiers. `make ci` is the full gate; see README.md.
GO ?= go

.PHONY: build build-examples vet lint test race identity-serial test-pool bench-smoke perf-module perf fuzz ci

build:
	$(GO) build ./...

# Examples are main packages; building them explicitly keeps the
# README-facing code honest.
build-examples:
	$(GO) build ./examples/...

vet:
	$(GO) vet ./...

# staticcheck when available (CI installs it; locally it is optional, so a
# missing binary skips instead of failing the gate).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

# Every test in the tree under the race detector, twice: the chaos, store,
# serve and bench suites all exercise goroutines (fleet workers, the
# replica pool, the runner's concurrent cells, ACC's parallel learners),
# and the second run meets warm on-disk and in-process state. One tier, so
# a renamed test cannot fall out of it.
race:
	$(GO) test -race -count=2 ./...

# The identity goldens once more on one core. At GOMAXPROCS > 1 the bench
# runner runs cells concurrently and ACC's agents learn in parallel; this
# keeps the serial schedule covered on multi-core hosts.
identity-serial:
	GOMAXPROCS=1 $(GO) test -count=1 -run '^(TestExhibitsIdentityGolden|TestLoopIdentityGolden|TestTrainIdentityGolden)$$' ./internal/bench/ ./internal/acc/

# The one tier that compiles different code: the poolcheck build tag turns
# packet/event ownership violations (double release, use after release)
# into panics in the pooled packages and both transports.
test-pool:
	$(GO) test -tags poolcheck ./internal/sim/ ./internal/netsim/ ./internal/dcqcn/ ./internal/dctcp/

# Run every Go benchmark exactly once (no timing loop) so CI catches
# benchmarks that no longer compile or crash, in seconds.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# perf/ is its own module compiled against this tree; `go test ./...` never
# builds it, so a renamed internal would otherwise only surface in
# `bash perf/run.sh`.
perf-module:
	$(GO) -C perf vet ./...
	$(GO) -C perf test ./...

# Every Fuzz* target in turn for FUZZTIME each (`make fuzz FUZZTIME=10m`).
# Not part of ci: fuzzing is open-ended, and ci runs each target's seed
# corpus as an ordinary test already.
FUZZTIME ?= 30s
fuzz:
	@set -e; for dir in $$(grep -rl --include='*_test.go' '^func Fuzz' . | grep -v '^./perf/' | xargs -n1 dirname | sort -u); do \
		for fn in $$($(GO) test -list '^Fuzz' $$dir | grep '^Fuzz'); do \
			echo "fuzz: $$dir $$fn ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) $$dir; \
		done; \
	done

# The repository's one benchmark (BENCHMARK.json): five workloads, ten
# end-to-end metrics; see perf/README.md for flags, ledgers and -compare.
perf:
	bash perf/run.sh

ci: build build-examples vet lint test identity-serial test-pool race perf-module bench-smoke
