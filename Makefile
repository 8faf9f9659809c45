# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml). `make bench-suite` runs the benchmark
# harness performance claims are made from (bench/README.md).

GO ?= go

.PHONY: all build test race bench-suite fuzz upgrade-smoke verify-paths loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/sim/... ./internal/obs/... ./internal/trace/... ./internal/netsim/... ./internal/wire/... ./internal/ctrlplane/... ./internal/flow/... ./internal/issu/... .

# bench-suite runs every workload of the benchmark harness: end-to-end
# metrics with an oracle pass per workload (exit 1 on a wrong packet).
bench-suite:
	$(GO) run ./bench

fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzProcess$$' -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzFlowBucket -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzTableIndex -fuzztime 20s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzBitAccess -fuzztime 20s ./internal/sim
	$(GO) test -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime 20s ./internal/wire

# upgrade-smoke performs an in-service P9 -> P9v2 upgrade (stage, shadow
# canary, cutover) over 10% drop links end to end.
upgrade-smoke:
	$(GO) run ./cmd/up4run -upgrade P9,up4/p9_fw_v2.up4 -seed 7 -chaos-drop 0.1 -chaos-dup 0.05 -chaos-reorder 0.05

# verify-paths runs the mechanized path-coverage equivalence check over
# P1-P11: every enumerated parser path and control-site outcome gets a
# concrete witness executed on three engines, which must agree
# byte-for-byte (see DESIGN.md "Mechanized equivalence").
verify-paths:
	$(GO) run ./cmd/up4c -verify-paths

# loc prints the non-test Go lines per package, largest first, and their
# total: the "net non-test LOC" every PR reports in CHANGES.md. Test
# support that lives outside _test.go files (it imports "testing") is
# not counted either.
loc:
	@find . -name '*.go' ! -name '*_test.go' | xargs grep -L '^	"testing"$$' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) print n[d], d; print t, "total" }' | sort -rn
