.PHONY: all build test bench micro verify-bench chaos-bench sat-bench proc-bench incr-bench portfolio-bench serve-bench store-bench adv-bench fold-bench fuzz check clean

all: build

build:
	dune build

test:
	dune runtest

bench: build
	dune exec bench/main.exe -- all

micro: build
	dune exec bench/main.exe -- micro

# Repeated-group verification throughput: tiered + cached engine vs the
# uncached sequential SMT path.  Writes machine-readable BENCH_verify.json.
verify-bench: build
	dune exec bench/main.exe -- verify-bench

# The resilience layer under chaos: deadline-bounded tail latency, 100%
# injected solver timeouts, circuit breaker, crash-proof reward path.
# Writes machine-readable BENCH_robust.json; exits non-zero if any fault
# flips a conclusive verdict or escapes the reward guards.
chaos-bench: build
	dune exec bench/main.exe -- robust-bench

# Clause-DB reduction on SMT-hostile queries: reduction off vs on, same
# conflict budget.  Writes machine-readable BENCH_sat.json; exits non-zero
# if the knob flips a conclusive verdict.
sat-bench: build
	dune exec bench/main.exe -- sat-bench

# The fork-based isolation backend (--isolate proc): hostile-query kill
# latency under 100% worker_hang injection (SIGKILL at the hard deadline,
# supervisor respawn), then verdict agreement against the in-process
# backend.  Writes machine-readable BENCH_proc.json; exits non-zero on a
# conclusive-verdict flip or a hostile call that escaped degradation.
proc-bench: build
	dune exec bench/main.exe -- proc-bench

# Incremental solver sessions + iterative-deepening unroll: one session
# walking the depth schedule (learned clauses, activities and the
# bit-blast memo retained) vs a fresh solve per depth vs one single-shot
# solve at the full bound, plus the same sweep through the forked proc
# backend.  Writes machine-readable BENCH_incr.json; exits non-zero if any
# leg flips a conclusive verdict.
incr-bench: build
	dune exec bench/main.exe -- incr-bench

# Diversified SAT portfolio + cube-and-conquer racing across the fork
# pool: four configs per hostile query, first conclusive verdict wins,
# losers SIGKILLed, inconclusive probes split into cubes on the top VSIDS
# variables.  Writes machine-readable BENCH_portfolio.json; exits non-zero
# on a conclusive-verdict flip or an orphaned worker.
portfolio-bench: build
	dune exec bench/main.exe -- portfolio-bench

# The serving layer under open-loop overload: calibrate sustainable
# throughput, then replay 2x that rate with chaos faults (worker kills,
# spurious queue-full, client disconnects, stalled dispatchers).  Every
# request must resolve, interactive p99 must stay within 2x its deadline,
# and the drain must leave zero orphaned workers.  Writes machine-readable
# BENCH_serve.json; exits non-zero on any overload-contract violation.
serve-bench: build
	dune exec bench/serve_bench.exe

# The shared disk-backed verdict store: cold fill vs warm rerun on a
# repeated-group workload (verbatim + alpha-renamed twins).  Writes
# machine-readable BENCH_store.json; exits non-zero if the warm rerun is
# below 3x faster, disagrees on any verdict, serves a corrupt entry, or
# leaks a worker.
store-bench: build
	dune exec bench/main.exe -- store-bench

# The emit-time fold engine vs the reference rescanning fixpoint driver:
# instcombine wall time over the adversarial generator stream (>= 1.5x
# gate), bit-identical SFT traces on the pinned default stream, zero
# conclusive verdict flips, and the canonical-key twin battery (100% store
# key collisions + Vcache hits on operand-commuted twins).  Writes
# machine-readable BENCH_fold.json; exits non-zero on any gate violation.
fold-bench: build
	dune exec bench/main.exe -- fold-bench

# The adversarial pain miner end to end: SIGKILL crash-safety of the
# corpus, a fresh-seed budgeted mine (>= 25 distinct minimized cases
# across >= 3 mutator families, zero conclusive-verdict flips through
# minimization), deterministic double replay, and a standing-stress window
# through the serving layer.  Writes machine-readable BENCH_adv.json;
# exits non-zero on any mining-contract violation.
adv-bench: build
	dune exec bench/adv_bench.exe

# Long-run differential fuzz campaign over the SAT core, the bit-vector
# poison paths and the Expr normal form against a reference evaluator (the
# runtest default is 5000 CNF, 1000 round-trip and 2000 normal-form cases).
fuzz: build
	VERIOPT_FUZZ_N=50000 dune exec test/test_main.exe -- test sat-fuzz
	VERIOPT_FUZZ_N=50000 dune exec test/test_main.exe -- test smt

# The full gate: build, unit tests, a longer fuzz pass, chaos smoke, and
# the hostile-query kill sweep through the forked-worker backend.
check: build
	dune runtest
	VERIOPT_FUZZ_N=20000 dune exec test/test_main.exe -- test sat-fuzz
	dune exec bench/main.exe -- robust-bench
	dune exec bench/main.exe -- proc-bench
	dune exec bench/main.exe -- incr-bench
	dune exec bench/main.exe -- portfolio-bench
	dune exec bench/main.exe -- store-bench
	dune exec bench/main.exe -- fold-bench
	dune exec bench/serve_bench.exe
	dune exec bench/adv_bench.exe

clean:
	dune clean
