.PHONY: all build test bench resilience-smoke parallel-smoke server-smoke obs-smoke rql-smoke store-smoke compile-smoke cluster-smoke incomplete-smoke check clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe -- tables

# The E25 smoke: kill workers mid-batch and verify containment (exit 1
# on any violation), then a scaled-down resilience benchmark — exits 1
# unless the deadline and budget probes trip with their typed errors,
# the budget never overspends, and retries change no non-faulted byte.
resilience-smoke:
	dune exec bin/recdb.exe -- crash-test --requests 100 -j 3 --every 20
	dune exec bin/recdb.exe -- bench resilience --trials 2 --requests 500 --fault-requests 100

# The E26 smoke: a tiny bench parallel run — exits 1 unless every
# measured pool run is byte-identical to sequential, asks no more
# questions than the sequential engine, and loses no worker.
parallel-smoke:
	dune exec bin/recdb.exe -- bench parallel --requests 120

# The E27 smoke: serve a few hundred requests over a loopback socket
# (ephemeral port) with the load generator — exits 1 unless everything
# sent is answered with zero errors, zero sheds and a clean drain.
server-smoke:
	dune exec bin/recdb.exe -- server-smoke

# The E28 smoke: a small bench obs run (tracing overhead, byte-identity
# with tracing on, exact ledger slices, a worked budget-trip trace),
# then obs-smoke — a traced server scraped over /metrics and /traces,
# exiting 1 unless the exposition is well-formed and every trace parses.
obs-smoke:
	dune exec bin/recdb.exe -- bench obs --requests 300 --trials 2 -o BENCH_obs_smoke.json
	dune exec bin/recdb.exe -- obs-smoke

# The E29 smoke: a small bench rql run — exits 1 unless the cost-based
# planner asks fewer questions than naive evaluation, the warm re-serve
# re-plans nothing and asks nothing new, and every mode is
# byte-identical — then the golden-file check: parse, plan and serve the
# committed RQL request file over a loopback socket and diff the
# responses against the committed expected output.
rql-smoke:
	dune exec bin/recdb.exe -- bench rql --requests 80 -o BENCH_rql_smoke.json
	dune exec bin/recdb.exe -- rql-smoke

# The E30 smoke: bench store (cold vs warm start + the fault matrix —
# exits 1 unless warm responses are byte-identical with < 5% of the
# cold questions and every damaged store recovers correct), then
# store-smoke — a real served process kill -9'd mid-load and restarted
# on the same store directory, checked for byte-identical answers, a
# near-zero warm ledger and a clean final drain.
store-smoke:
	dune exec bin/recdb.exe -- bench store --requests 120 -o BENCH_store_smoke.json
	dune exec bin/recdb.exe -- store-smoke

# The E31 smoke: bench compile — exits 1 unless the interpretation-
# bound hot loops (deep FO tree quantification, bounded Qf
# enumeration) run >= 5x faster compiled, and the compiled engine
# reproduces the frozen interpreted output (test/golden/
# compile_interp.jsonl: response bytes and the Def. 3.9 question
# ledger of every request, budget and deadline trips included).
compile-smoke:
	dune exec bin/recdb.exe -- bench compile --requests 150 -o BENCH_compile_smoke.json

# The E32 smoke: bench cluster — three real shard processes behind the
# consistent-hash router.  Exits 1 unless routed answers are
# byte-identical to the sequential reference, the merged cluster
# ledger asks no more questions than one sequential engine, hedging
# beats the plain router's p99 under a SIGSTOPped shard (with the
# duplicate questions visible in the merge), and a kill -9'd shard is
# respawned by the supervisor with zero lost requests and zero router
# crashes.
cluster-smoke:
	dune exec bin/recdb.exe -- bench cluster -o BENCH_cluster_smoke.json

# The E33 smoke: bench incomplete (certain ⊆ exact ⊆ possible on the
# demo open-world declarations, closed-world byte-identity, approximate
# convergence, zero ledger overhead), then incomplete-smoke -- the same
# claims exercised over a real socket, including the typo'd-field
# counter and --default-mode.
incomplete-smoke:
	dune exec bin/recdb.exe -- bench incomplete --requests 60 -o BENCH_incomplete_smoke.json
	dune exec bin/recdb.exe -- incomplete-smoke

check: build test bench resilience-smoke parallel-smoke server-smoke obs-smoke rql-smoke store-smoke compile-smoke cluster-smoke incomplete-smoke

clean:
	dune clean
