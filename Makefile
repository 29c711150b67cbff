# Convenience targets; everything is plain `go` underneath.

.PHONY: all check build test test-short race bench bench-record bench-compare figures examples vet fmt fmt-check

all: check

check: fmt-check build vet test

build:
	go build ./...

vet:
	go vet ./...

fmt:
	gofmt -w .

# Fail (listing the files) when any Go source is not gofmt-formatted.
fmt-check:
	@out="$$(gofmt -l cmd examples internal perfbench *.go)"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

test:
	go test ./...

test-short:
	go test -short ./...

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem -run XXX ./...

# Record a benchmark baseline (BENCH_<gitsha>.json) and diff two
# recordings; see EXPERIMENTS.md "Recording and comparing benchmarks".
bench-record:
	go run ./cmd/scbench record

BASE ?= BENCH_baseline.json
NEW ?=
bench-compare:
	go run ./cmd/scbench compare $(BASE) $(NEW)

# Regenerate every table and figure of the paper (DESIGN.md maps them).
figures:
	go run ./cmd/scbench all

examples:
	go run ./examples/quickstart
	go run ./examples/patterns
	go run ./examples/silica
	go run ./examples/scaling
