.PHONY: all build test fmt ci bench wallclock parallel merge check trace-demo clean

# Domain fan-out for the harness (check sweeps, experiment grids, bench
# scenarios). 0 = one worker per core; output is byte-identical at any
# value. Override per invocation: `make check JOBS=4`.
JOBS ?= 0

all: build

build:
	dune build

test:
	dune runtest

# ocamlformat is not part of the pinned dependency set everywhere this
# repo builds; format only when the tool is actually present.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune fmt; \
	else \
		echo "fmt: ocamlformat not installed, skipping"; \
	fi

# Seeded chaos checking (DESIGN.md §8). `make check` is the standing
# smoke sweep; crank --seeds up for a longer hunt.
check:
	dune exec bin/geogauss_cli.exe -- check --seeds 25 --fast --jobs $(JOBS)
	dune exec bin/geogauss_cli.exe -- check --canary

ci: fmt
	dune build
	dune runtest
	@t1=$$(date +%s.%N); \
	dune exec bin/geogauss_cli.exe -- check --seeds 5 --fast --jobs 1 > /tmp/gg_ci_j1.out; \
	t2=$$(date +%s.%N); \
	dune exec bin/geogauss_cli.exe -- check --seeds 5 --fast --jobs $(JOBS) > /tmp/gg_ci_jn.out; \
	t3=$$(date +%s.%N); \
	cmp /tmp/gg_ci_j1.out /tmp/gg_ci_jn.out || { echo "ci: -j1 vs -j$(JOBS) output differs"; exit 1; }; \
	cat /tmp/gg_ci_jn.out; \
	cores=$$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1); \
	if [ "$$cores" -gt 1 ]; then \
		awk -v a="$$t1" -v b="$$t2" -v c="$$t3" \
			'BEGIN { printf "ci: check sweep %.2fs at -j1, %.2fs at JOBS=$(JOBS) (%.2fx)\n", b-a, c-b, (b-a)/(c-b) }'; \
	else \
		echo "ci: single-core host, speedup not meaningful (outputs compared equal)"; \
	fi
	dune exec bin/geogauss_cli.exe -- check --seeds 3 --fast --merge-jobs 4 > /tmp/gg_ci_mj.out; \
	tail -1 /tmp/gg_ci_mj.out; \
	echo "ci: merge-jobs=4 sweep ran clean (results are byte-identical to -j1 by construction; dune runtest asserts it)"
# Partial replication (DESIGN.md §12): a short partitioned sweep per
# partition map, plus a corrupted-frame sweep exercising the
# decode-failure -> stall-repair path.
	dune exec bin/geogauss_cli.exe -- check --seeds 5 --fast --partitioning hash:2 --jobs $(JOBS) > /tmp/gg_ci_ph.out; \
	tail -1 /tmp/gg_ci_ph.out
	dune exec bin/geogauss_cli.exe -- check --seeds 5 --fast --partitioning region --jobs $(JOBS) > /tmp/gg_ci_pr.out; \
	tail -1 /tmp/gg_ci_pr.out
	dune exec bin/geogauss_cli.exe -- check --seeds 3 --fast --corrupt 0.05 --jobs $(JOBS) > /tmp/gg_ci_cf.out; \
	tail -1 /tmp/gg_ci_cf.out
# Column-level merge (DESIGN.md §13): the same drawn seeds with the
# per-field lattice pinned on, through all five oracles.
	dune exec bin/geogauss_cli.exe -- check --seeds 5 --fast --merge-level column --jobs $(JOBS) > /tmp/gg_ci_ml.out; \
	tail -1 /tmp/gg_ci_ml.out
# Clock-assisted fast path (DESIGN.md §14): the same drawn seeds with
# local-clock epochs, the seal-time WAL prelog and skew bursts pinned
# on — the merge still waits for every EOF, so all five oracles apply
# unchanged.
	dune exec bin/geogauss_cli.exe -- check --seeds 5 --fast --engine eocc --clock-skew 10 --jobs $(JOBS) > /tmp/gg_ci_fp.out; \
	tail -1 /tmp/gg_ci_fp.out
	dune exec bin/geogauss_cli.exe -- check --canary
# Perf-regression accounting: fresh fast wallclock run vs the committed
# baseline. Fast mode uses shrunk populations, so rates differ
# legitimately; the wide threshold + warn-only keeps this a tripwire for
# order-of-magnitude regressions (and the absolute 5% tracing-overhead
# gate), not a flaky blocker.
	dune exec bench/main.exe -- wallclock --fast --out /tmp/gg_wc_fast.json --jobs $(JOBS)
	dune exec bin/geogauss_cli.exe -- bench diff BENCH_wallclock.json /tmp/gg_wc_fast.json --warn-only --threshold 0.5
# Same tripwire for the partial-replication sweep: fresh fast fig_scale
# vs the committed 25-200 replica baseline (fast mode only runs the
# 25/50 widths; the 100/200 rows report as missing, which warn-only
# tolerates). Fresh JSONs go straight to /tmp via --out, so the
# committed baselines are never touched.
	dune exec bench/main.exe -- fig_scale --fast --out /tmp/gg_scale_fast.json --jobs $(JOBS) > /dev/null
	dune exec bin/geogauss_cli.exe -- bench diff BENCH_scale.json /tmp/gg_scale_fast.json --warn-only --threshold 0.5
# And for the merge-granularity sweep: fresh fast fig_skew vs the
# committed baseline (abort-rate and WAN columns gate lower-is-better).
	dune exec bench/main.exe -- fig_skew --fast --out /tmp/gg_skew_fast.json --jobs $(JOBS) > /dev/null
	dune exec bin/geogauss_cli.exe -- bench diff BENCH_skew.json /tmp/gg_skew_fast.json --warn-only --threshold 0.5
# And for the fast-path sweep: fresh fast fig_fastpath vs the committed
# baseline (p50/p95 gate lower-is-better; fast mode only runs the
# 0/10/50 ms bounds, the rest report missing, which warn-only
# tolerates).
	dune exec bench/main.exe -- fig_fastpath --fast --out /tmp/gg_fp_fast.json --jobs $(JOBS) > /dev/null
	dune exec bin/geogauss_cli.exe -- bench diff BENCH_fastpath.json /tmp/gg_fp_fast.json --warn-only --threshold 0.5
# The repository benchmark's smoke test: builds and runs perfbench on a
# short window and checks its report's shape.
	python3 perfbench/smoke.py

bench:
	dune exec bench/main.exe -- --jobs $(JOBS)

wallclock:
	dune exec bench/main.exe -- wallclock --jobs $(JOBS)

parallel:
	dune exec bench/main.exe -- parallel

merge:
	dune exec bench/main.exe -- merge

# End-to-end tracing walkthrough: a seeded fig5-style run with tracing
# on, then the causal critical-path attribution and per-region-pair WAN
# report over the written trace. All three outputs are deterministic
# functions of the seed.
trace-demo:
	dune exec bin/geogauss_cli.exe -- run -w ycsb-mc -n 3 -t 2 --seed 7 --trace /tmp/gg_demo_trace.jsonl
	dune exec bin/geogauss_cli.exe -- trace critical-path /tmp/gg_demo_trace.jsonl --json /tmp/gg_demo_cp.json
	dune exec bin/geogauss_cli.exe -- trace wan /tmp/gg_demo_trace.jsonl --json /tmp/gg_demo_wan.json

clean:
	dune clean
