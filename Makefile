# Standard checks for this repository. `make check` is the gate every
# change must pass: gofmt, vet, the project's own static analyzers
# (wikilint), the full test suite under the race detector, and the
# allocation guards (which skip under -race, so they get a plain run).

GO ?= go

.PHONY: check build test vet lint lint-cold race bench allocguard fuzzsmoke fmt fmtcheck loc

check: fmtcheck vet lint race allocguard fuzzsmoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# wikilint runs the engine-specific analyzers (atomicfield, hotpathalloc,
# nocopy, ctxhandler, mmapview, singlewriter, lifecycle, durability and the
# directives validator) over the whole module; see internal/analysis and
# DESIGN.md §8/§11. Warm runs replay from the content-hash result cache;
# lint-cold forces a fresh analysis.
lint:
	$(GO) run ./cmd/wikilint ./...

lint-cold:
	$(GO) run ./cmd/wikilint -nocache ./...

race:
	$(GO) test -race ./...

# The zero-allocation guards use testing.AllocsPerRun, which the race
# detector's instrumentation would break, so they skip under -race and run
# here without it.
allocguard:
	$(GO) test -run AllocationFree -count=1 . ./internal/core ./internal/graph ./internal/parallel ./internal/trace

# A short coverage-guided fuzz pass over the v3 dump decoder and the
# delta-log decoder: corrupt input must never panic or over-allocate. The
# seed corpora run under plain go test too.
fuzzsmoke:
	$(GO) test -run=^$$ -fuzz=FuzzLoadDump -fuzztime=20s ./internal/storage
	$(GO) test -run=^$$ -fuzz=FuzzLoadDelta -fuzztime=20s ./internal/storage

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Non-test Go line count, the number least-code PRs report before and after.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './internal/analysis/testdata/*' -not -path './.bench_build/*' | xargs cat | wc -l

fmt:
	gofmt -l -w .

# fmtcheck fails (listing the files) when anything is not gofmt-clean.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
