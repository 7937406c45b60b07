# Standard checks for this repository. `make check` is the gate every
# change must pass: gofmt, vet, the full test suite under the race detector,
# the allocation guards (which skip under -race, so they get a plain run) and
# a short fuzz pass.
#
# The engine's structural rules are checked by running the code or by the
# compiler, not by a linter:
#   - lock-free words are typed atomics, so a plain access does not compile;
#   - vet's copylocks check reports copies of the noCopy-holding types;
#   - the warm search path allocates nothing: `make allocguard`;
#   - every route honours a cancelled request and Close leaves no goroutine:
#     internal/server's TestRoutesHonorCancelledContext and
#     TestCloseLeavesNoGoroutine;
#   - durable writes survive a crash at every call: internal/storage's
#     TestAtomicWriteFaults and TestAtomicWriteCrash;
#   - no search result points into an unmapped dump:
#     TestResultOutlivesEngineClose and TestOnlyStorageImportsUnsafe;
#   - each worker writes only its own trace ring: internal/trace's
#     TestTraceRingPerWorker and the root package's
#     TestTraceAssemblyConcurrent, whose Tnum 4 searches put several
#     helpers in one phase; and only its own stage-two scratch: the
#     variant equivalence tests. `make race` runs them under -race.

GO ?= go

.PHONY: check build test vet race bench allocguard fuzzsmoke fmt fmtcheck loc

check: fmtcheck vet race allocguard fuzzsmoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The zero-allocation guards (every test named *AllocationFree*) run each
# branch of the warm search path — kernel, pool dispatch, per-edge
# primitives, trace recording — and count its allocations with
# testing.AllocsPerRun. The race detector's instrumentation would break the
# count, so they skip under -race and run here without it.
allocguard:
	$(GO) test -run AllocationFree -count=1 . ./internal/core ./internal/graph ./internal/parallel ./internal/trace

# A short coverage-guided fuzz pass over the v3 dump decoder and the
# delta-log decoder (corrupt input must never panic or over-allocate) and
# over the HTTP request decoders (no /v1/mutate body may answer 5xx, no
# search query string may pass the parser with an invalid knob). The seed
# corpora run under plain go test too.
fuzzsmoke:
	$(GO) test -run=^$$ -fuzz=FuzzLoadDump -fuzztime=20s ./internal/storage
	$(GO) test -run=^$$ -fuzz=FuzzLoadDelta -fuzztime=20s ./internal/storage
	$(GO) test -run=^$$ -fuzz=FuzzV1Mutate -fuzztime=20s ./internal/server
	$(GO) test -run=^$$ -fuzz=FuzzSearchParams -fuzztime=20s ./internal/server

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Non-test Go line count, the number least-code PRs report before and after;
# the second line counts only the packages the serving binary links.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './.bench_build/*' | xargs cat | wc -l
	@$(GO) list -deps -f '{{if and .Module .Module.Main}}{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}{{end}}' ./cmd/wikiserve | xargs cat | wc -l

fmt:
	gofmt -l -w .

# fmtcheck fails (listing the files) when anything is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
