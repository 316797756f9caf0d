.PHONY: all build test bench recdb-exe engine-smoke resilience-smoke parallel-smoke server-smoke obs-smoke rql-smoke store-smoke compile-smoke cluster-smoke incomplete-smoke perfbench-smoke baseline-keys check clean

all: build

build:
	dune build @all

# The tier-1 suites, test_paper among them: every gate of the paper
# report E1–E23.
test:
	dune runtest

# Every bench and smoke below runs from the one bench front end,
# `dune exec bench/main.exe -- NAME` (see its --help): it prints the
# report one `path value` line per leaf, writes it with -o, and exits 1
# on any violated gate.

# The paper report E1–E23 (writes no file; exits 1 on any violated
# gate, as test_paper does under `make test`).
bench:
	dune exec bench/main.exe -- paper

# The forking benches and smokes spawn _build/default/bin/recdb.exe.
recdb-exe:
	dune build ./bin/recdb.exe

# The E24 smoke: bench engine — exits 1 unless every cached engine
# answer on the E17 sentences equals uncached evaluation and the LRU
# asks fewer raw oracle questions than the uncached instance.
engine-smoke:
	dune exec bench/main.exe -- engine -o BENCH_engine_smoke.json

# The E25 smoke: a scaled-down resilience benchmark — exits 1 unless
# the deadline and budget probes trip with their typed errors, the
# budget never overspends, and retries change no non-faulted byte.
# (Crash containment — workers killed mid-batch, sparsely and with
# respawn churn — is test_resilience's "crashes fail only their own
# request", run by `make test`.)
resilience-smoke:
	dune exec bench/main.exe -- resilience --trials 2 --requests 500 --fault-requests 100 -o BENCH_resilience_smoke.json

# The E26 smoke: a tiny bench parallel run — exits 1 unless every
# measured pool run is byte-identical to sequential, asks no more
# questions than the sequential engine, and loses no worker.
parallel-smoke:
	dune exec bench/main.exe -- parallel --requests 120 -o BENCH_parallel_smoke.json

# The E27 smoke: serve a few hundred requests over a loopback socket
# (ephemeral port) with the load generator, then the same load through
# a forked recdb router over that serve child — exits 1 unless, at both
# doors, everything sent is answered with zero errors and zero sheds and
# both children drain clean — then a small bench server run: socket ==
# sequential bytes, nothing lost at 1/2/4/8 connections, typed sheds at
# 2x the admission window.
server-smoke: recdb-exe
	dune exec bench/main.exe -- server-smoke
	dune exec bench/main.exe -- server --requests 100 -o BENCH_server_smoke.json

# The E28 smoke: a small bench obs run (tracing overhead, byte-identity
# with tracing on, exact ledger slices, a worked budget-trip trace),
# then obs-smoke — a forked traced serve child scraped over /metrics
# and /traces, exiting 1 unless the exposition is well-formed, every
# trace parses and the child drains clean.
obs-smoke: recdb-exe
	dune exec bench/main.exe -- obs --requests 300 --trials 2 -o BENCH_obs_smoke.json
	dune exec bench/main.exe -- obs-smoke

# The E29 smoke: a small bench rql run — exits 1 unless the cost-based
# planner asks fewer questions than naive evaluation, the warm re-serve
# re-plans nothing and asks nothing new, and every mode is
# byte-identical — then the golden-file check: parse, plan and serve the
# committed RQL request file over a loopback socket and diff the
# responses against the committed expected output.
rql-smoke: recdb-exe
	dune exec bench/main.exe -- rql --requests 80 -o BENCH_rql_smoke.json
	dune exec bench/main.exe -- rql-smoke

# The E30 smoke: bench store (cold vs warm start + the fault matrix —
# exits 1 unless warm responses are byte-identical with < 5% of the
# cold questions and every damaged store recovers correct), then
# store-smoke — a real served process kill -9'd mid-load and restarted
# on the same store directory, checked for byte-identical answers, a
# near-zero warm ledger and a clean final drain.
store-smoke: recdb-exe
	dune exec bench/main.exe -- store --requests 120 -o BENCH_store_smoke.json
	dune exec bench/main.exe -- store-smoke

# The E31 smoke: bench compile — exits 1 unless the interpretation-
# bound hot loops (deep FO tree quantification, bounded Qf
# enumeration) run >= 5x faster compiled, and the compiled engine
# reproduces the frozen interpreted output (test/golden/
# compile_interp.jsonl: response bytes and the Def. 3.9 question
# ledger of every request, budget and deadline trips included).
compile-smoke:
	dune exec bench/main.exe -- compile --requests 150 -o BENCH_compile_smoke.json

# The E32 smoke: bench cluster — three real shard processes behind the
# consistent-hash router.  Exits 1 unless routed answers are
# byte-identical to the sequential reference, the merged cluster
# ledger asks no more questions than one sequential engine, hedging
# beats the plain router's p99 under a SIGSTOPped shard (with the
# duplicate questions visible in the merge), and a kill -9'd shard is
# respawned by the supervisor with zero lost requests and zero router
# crashes.
cluster-smoke: recdb-exe
	dune exec bench/main.exe -- cluster -o BENCH_cluster_smoke.json

# The E33 smoke: bench incomplete (certain ⊆ exact ⊆ possible on the
# demo open-world declarations, closed-world byte-identity, approximate
# convergence, zero ledger overhead), then incomplete-smoke -- the same
# claims exercised over a real socket, including the typo'd-field
# counter and --default-mode (two forked serve --open-world children).
incomplete-smoke: recdb-exe
	dune exec bench/main.exe -- incomplete --requests 60 -o BENCH_incomplete_smoke.json
	dune exec bench/main.exe -- incomplete-smoke

# The served bytes end to end: the serving benchmark (BENCHMARK.json)
# for 1 s on cold_mix, through a real serve process, and on
# routed_zipf, through a real router over two serve shards.  Fails
# unless each run reports "correct":true — every served line equals
# the sequential reference — with no failed request.
perfbench-smoke:
	@for w in cold_mix routed_zipf; do \
	  out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
	  echo "perfbench $$w: $$out"; \
	  case "$$out" in \
	    *'"correct":true,'*'"failed":0,'*) ;; \
	    *) echo "perfbench $$w: served bytes differ from the reference, or requests failed"; exit 1 ;; \
	  esac; \
	done

# The committed baselines cannot drift from what the benches write:
# every key path of a smoke report BENCH_<name>_smoke.json (array
# indices normalized to []) must exist in the committed full-size
# BENCH_<name>.json.  A report field added or renamed without
# regenerating its baseline fails here.  Run after the smokes.
KEYS = [paths(scalars) | map(if type == "number" then "[]" else . end) | join(".")] | unique

baseline-keys:
	@status=0; for fresh in BENCH_*_smoke.json; do \
	  committed=$${fresh%_smoke.json}.json; \
	  missing=$$(jq -n -c --argjson f "$$(jq -c '$(KEYS)' $$fresh)" \
	    --argjson c "$$(jq -c '$(KEYS)' $$committed)" '$$f - $$c'); \
	  if [ "$$missing" != "[]" ]; then \
	    echo "$$committed lacks key paths of $$fresh: $$missing"; status=1; \
	  fi; \
	done; exit $$status

check: build test engine-smoke resilience-smoke parallel-smoke server-smoke obs-smoke rql-smoke store-smoke compile-smoke cluster-smoke incomplete-smoke perfbench-smoke baseline-keys

clean:
	dune clean
