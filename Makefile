.PHONY: test lint lint-smoke race allocs fuzz cover bench table serve smoke-serve

test:
	go build ./... && go test ./...

# Static analysis: go vet plus the project linter (cmd/earmac-lint),
# which enforces the determinism, zero-alloc, and fingerprint
# invariants statically (DESIGN.md §15).
lint:
	go vet ./...
	go run ./cmd/earmac-lint ./...

# Prove the linter gates: it must fail on a fixture seeded with
# violations and pass on the real tree (what the CI lint job runs).
lint-smoke:
	sh scripts/lint-smoke.sh

# Full suite under the race detector (what the CI race job runs).
race:
	go test -race ./...

# Steady-state allocation floor: the ZeroAllocs tests and the pinned
# bench rows (TestBenchRows: exact queue_max/energy, twin equality and
# an allocs/round ceiling), without -short (the test job runs -short and
# the race job skips the allocation checks). The CI bench job runs this
# target.
allocs:
	go test -run 'ZeroAllocs|^TestBenchRows$$' -v . ./internal/network

# Fuzz smoke: same budget as the CI fuzz job.
fuzz:
	go test -run '^$$' -fuzz '^FuzzBucket$$' -fuzztime 10s ./internal/adversary
	go test -run '^$$' -fuzz '^FuzzTraceRoundTrip$$' -fuzztime 10s ./internal/scenario
	go test -run '^$$' -fuzz '^FuzzCompileLinks$$' -fuzztime 10s ./internal/network

# Statement coverage with a per-package summary. Writes cover.out (the
# profile the CI cover job uploads as an artifact); the summary script
# groups the profile by package, statement-weighted.
cover:
	go test -short -coverprofile=cover.out -coverpkg=./... ./...
	sh scripts/cover-summary.sh cover.out

# Paired perfbench A/B of the working tree against BASE (default the
# parent commit): exit 1 when an end-to-end metric's median is worse
# than its BENCHMARK.json bound (what the CI bench job runs).
BASE ?= HEAD~1
bench:
	sh scripts/bench-ab.sh $(BASE)

table:
	go run ./cmd/earmac-table

# Run the experiment service (content-addressed result cache, progress
# streaming; see README "Serving experiments").
serve:
	go run ./cmd/earmac-serve

# End-to-end service smoke: start earmac-serve, submit a Table 1 config
# twice, assert the second response is a byte-identical cache hit, drain
# on SIGTERM (what the CI serve-smoke job runs).
smoke-serve:
	sh scripts/serve-smoke.sh
