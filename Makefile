# Convenience targets; everything is plain `go` underneath.

.PHONY: all check build test test-short race bench bench-harness figures examples vet fmt fmt-check

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

# One iteration of every Enumerate*/Ablation* benchmark and of the
# Hybrid-MD list-row benchmark: fails only when a benchmark's setup or
# run breaks (the CI bench-harness job runs the same two commands).
bench-harness:
	go test -run '^$$' -bench 'Enumerate|Ablation' -benchtime 1x .
	go test -run '^$$' -bench HybridRows -benchtime 1x ./internal/parmd

# Regenerate every table and figure of the paper (DESIGN.md maps them).
figures:
	go run ./cmd/scbench all

examples:
	go run ./examples/quickstart
	go run ./examples/patterns
	go run ./examples/silica
	go run ./examples/scaling
