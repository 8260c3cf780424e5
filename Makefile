# Tier-1 verification plus the doc/formatting gates.  `make check` is
# what a PR must keep green.

.PHONY: all build test doc fmt-check crash-test serve-test scenario-test chaos-test metrics bench-quick bench-diff docs-check check clean

all: build

build:
	dune build

# The differential test in test/test_par.ml runs sit_batch-style
# sessions at 1, 2, 4 and 8 domains (Par.For_testing.with_domains) and
# asserts identical results, so one pass covers the determinism
# contract on any host.
test:
	dune runtest --force

doc:
	dune build @doc

# Formatting is scoped to dune files in dune-project (ocamlformat is
# not vendored), so the preview is deterministic everywhere.
fmt-check:
	@out=$$(dune fmt --preview 2>&1); \
	if [ -n "$$out" ]; then \
	  echo "$$out"; \
	  echo "fmt-check: 'dune fmt --preview' is not clean (run 'dune fmt')"; \
	  exit 1; \
	fi
	@echo "fmt-check: clean"

# The journal fault-injection harness (docs/ROBUSTNESS.md): truncation
# at every record boundary, torn writes at arbitrary byte budgets and
# single-bit flips.  Also part of `make check`.
crash-test: build
	dune exec test/test_journal.exe

# End-to-end daemon check (docs/SERVING.md): start sit_serve on the
# paper session over a unix socket, replay 1000 requests over 4
# connections with byte-identity checking, probe the error paths, and
# verify SIGTERM drains.  Also part of `make check`.
serve-test: build
	sh scripts/serve_test.sh

# Federation-scale differential harness (docs/SCENARIOS.md): three
# pinned seeds — 11 (8 schemas, 241 ops), 23 (5 schemas, 196 ops) and
# 42 (6 schemas, single round) — each replayed through three legs
# (offline in-process, a served daemon, and a checkpoint-resumed
# daemon), all required to produce byte-identical transcripts with
# full ground-truth recovery.
# Budget: about 4 seconds per seed.  Also part of `make check`.
scenario-test: build
	sh scripts/scenario_test.sh

# Replication chaos harness (docs/ROBUSTNESS.md): a pinned-seed
# scenario through a leader + 2-follower cluster — semi-sync acks,
# follower catch-up, a SIGKILLed leader with client failover, and a
# late-started follower — every leg byte-compared against a
# single-node reference.  Budget: about 4 seconds.  Also part of
# `make check`.
chaos-test: build
	sh scripts/chaos_test.sh

# Regenerate the observability baseline (see docs/ARCHITECTURE.md).
metrics:
	dune exec bench/main.exe -- metrics

# The experiments a data-plane change most wants while iterating: E23
# (flat similarity kernels) and E24 (scenario engine).  Much faster
# than the full `dune exec bench/main.exe`.  Serving and replication
# are measured from outside the daemon by sitbench (bench/e2e).
bench-quick:
	dune exec bench/main.exe -- e23 e24

# Compare metrics reports of two commits and fail on span regressions
# beyond the threshold — the PR-over-PR perf gate (see
# docs/PERFORMANCE.md).  OLD and NEW may each list several reports of
# one commit, space-separated; per-path medians are compared, and a
# change within twice the old side's spread reads unresolved.
# Usage: make bench-diff [OLD="BENCH_pr16.json"] [NEW="BENCH_pr17.json"]
#        [THRESHOLD=0.25] [MIN_SECONDS=0.0005]
OLD ?= BENCH_pr16.json
NEW ?= BENCH_pr17.json
THRESHOLD ?= 0.25
MIN_SECONDS ?= 0.0005
bench-diff:
	dune exec bench/diff.exe -- $(OLD) -- $(NEW) \
	  --threshold $(THRESHOLD) --min-seconds $(MIN_SECONDS)

# Docs drift gate (see scripts/docs_check.sh): every docs/*.md guide
# must be linked from README.md, and the op table in docs/SERVING.md
# must match the wire protocol's op registry (Wire.ops).
docs-check:
	sh scripts/docs_check.sh

check: build test crash-test serve-test scenario-test chaos-test doc fmt-check docs-check
	@echo "check: build, tests, crash-test, serve-test, scenario-test, chaos-test, docs and formatting all green"

clean:
	dune clean
