# Convenience wrappers around dune; CI runs the same three gates.

.PHONY: all build lint analyze test check storm soak obs scale storm-scale spread cluster bench clean

all: lint analyze build test

build:
	dune build

lint:
	dune build @lint

# AST-grade passes (shared-mutable-state inventory, effect signatures,
# AST-precise partiality, unused exports) over the six roots lib, bin,
# bench, tool, perfbench and examples (the same list as the root dune
# rule), ratcheted by analyze.baseline; writes the machine-readable
# shared-state report CI uploads.
analyze:
	dune build @analyze
	dune exec tool/analyze/sf_analyze.exe -- --baseline analyze.baseline \
	  --report ANALYZE_report.json lib bin bench tool perfbench examples

test:
	dune runtest

# A fully audited simulation: every S&F action checked against the paper's
# invariants (M1 degree bounds, edge conservation, the dL duplication rule),
# with periodic full scans.  Nonzero exit on any violation.
check: build
	dune exec bin/sfg.exe -- check --n 1000 --rounds 50 --loss 0.0
	dune exec bin/sfg.exe -- check --n 1000 --rounds 50 --loss 0.2

# Fault-matrix smoke: each storm drives a scenario through the sequential
# simulator under the strict invariant audit, then replays it on a real
# UDP loopback cluster and re-checks every view (M1 bounds, parity,
# soundness).  Nonzero exit on any violation.  Distinct seeds and ports so
# the runs are independent.
storm: build
	dune exec bin/sfg.exe -- storm --seed 11 --port 48100
	dune exec bin/sfg.exe -- storm --seed 23 --rounds 50 --port 48200 \
	  --scenario "partition@5-20:3;crash@25-32:0-5"
	dune exec bin/sfg.exe -- storm --seed 37 --rounds 60 --port 48300 \
	  --scenario "ge:0.25:6"

# Resilience soak (budget: ~1 minute): a chaos scenario — bursty loss, a
# partition, a crash wave — under the full self-healing policy, first on
# the audited simulator (estimator accuracy checked against the
# injector's ground truth) and then on a UDP loopback cluster with
# in-place crash-restart; nonzero exit on any failed verdict.  The second chaos
# world (s=16, dL=6, d_hat=10, no recovery fallback) is the test
# `resilience 12` under `make test`.
soak: build
	dune exec bin/sfg.exe -- soak --port 48400

# Observability smoke: a metrics snapshot and a trace dump from the
# instrumented simulator, plus the determinism property the tracer
# guarantees — equal seeds dump byte-identical JSONL.
obs: build
	dune exec bin/sfg.exe -- top --once --n 200 --rounds 50
	dune exec bin/sfg.exe -- trace --n 100 --rounds 5 -o /tmp/sfg-trace-a.jsonl
	dune exec bin/sfg.exe -- trace --n 100 --rounds 5 -o /tmp/sfg-trace-b.jsonl
	cmp /tmp/sfg-trace-a.jsonl /tmp/sfg-trace-b.jsonl
	rm -f /tmp/sfg-trace-a.jsonl /tmp/sfg-trace-b.jsonl

# Scale smoke (budget: well under a minute): the sharded flat-state
# engine at n = 10^4 under the strict round-granular audit and the
# domain-count determinism cross-check on 1, 2 and 4 domains.  The full
# million-node ladder is `dune exec bench/main.exe -- SCALE`.
scale: build
	dune exec bin/sfg.exe -- scale --n 10000 --rounds 30 --loss 0.05 \
	  --audit --verify-domains

# Chaos-at-scale gate (budget: well under a minute): the sharded engine
# at n = 10^4 under a mixed GE + partition + crash scenario with churn
# and the adaptive resilience stack re-solving for d_hat = 8, audited
# strictly and cross-checked for domain-count determinism on 1, 2 and 4
# domains.  Exit codes follow storm/soak: 1 on an audit or determinism
# failure or an unconfident loss estimator, 2 when nothing failed but a
# declared fault class never engaged or churn turned no node over.
storm-scale: build
	dune exec bin/sfg.exe -- scale --n 10000 --rounds 30 \
	  --scenario "ge:0.2:8;partition@5-12:2;crash@15-20:0-999" \
	  --churn 0.01 --headroom 1024 --resilience --d-hat 8 --audit \
	  --verify-domains

# Dissemination gate (budget: well under a minute): a push-pull rumor
# spread over live views at n = 10^4 under bursty loss with the
# domain-count determinism cross-check, then the SPREAD10 bench section
# — the strategy x loss grid at n = 10^3, 10^4 with the coverage,
# log2-envelope and direct-beats-push checks.  The full ladder to
# n = 10^6 is `dune exec bench/main.exe -- SPREAD`.
spread: build
	dune exec bin/sfg.exe -- spread --strategy push-pull --n 10000 \
	  --scenario "ge:0.2:8" --verify-domains
	dune exec bench/main.exe -- SPREAD10

# Multi-process cluster gate (budget: well under a minute): fork 8 real
# node-host processes (256 UDP sockets) under bursty loss with a crash
# window realized as a genuine kill -9 plus controller respawn, gating on
# M1 bounds, parity and weak connectivity of the merged post-heal views,
# and printing datagrams/s, batch fill and per-action p50/p99.
# Exit codes follow storm/soak: 1 on a failed verdict, 2 when nothing
# failed but a declared fault class left no process-level evidence.
cluster: build
	dune exec bin/sfg.exe -- cluster --quiet --port 47200

bench:
	dune exec bench/main.exe

clean:
	dune clean
