#!/usr/bin/env python3
"""Benchmark of the paper pipeline and the verification service.

Run from the root of a source checkout:

    python3 perfbench/run.py --serve-rps 5 --workload label --seed 1 --seconds 25 --trace 0

It builds perfbench/bench.exe from source with dune (into .perfbench/_build),
pins the environment, runs each timed pass in a fresh process until
--seconds have elapsed, times set-up from launch to readiness, checks that
the outputs are correct and deterministic, and prints as its last line one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
are the per-layer metrics of a traced run.  The line before it is a record
with the provenance (source digest, nproc, seed, environment), the work
counters, the output digest and per-class latency percentiles.  Everything
the run writes stays under .perfbench/ in the checkout; its scratch
directory is deleted at exit.  See perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("label", "train", "warm", "serve")

# Each pass runs in a fresh process (so passes do not inherit one another's
# heap, and a process that lands on a slow CPU is one sample among several);
# passes repeat until --seconds have elapsed, and at least this often.
MIN_PASSES = {"label": 5, "train": 3, "warm": 3, "serve": 1}

# Set-up is timed from launch to readiness.  Every measuring process of
# label and train sets up afresh, so those are the samples; warm's set-up
# (build the sample sets, fill the verdict store with one cold pass) and
# serve's (fork the workers, draw the schedule) get launches of their own.
SETUP_LAUNCHES = {"label": 0, "train": 0, "warm": 2, "serve": 8}

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "fast_p50_ms": "ms",
    "decided_share": "ratio",
    "different_correct": "ratio",
    "geomean_speedup": "x",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "data.cgen_ms": "ms", "data.lower_ms": "ms", "passes.instcombine_ms": "ms",
    "passes.rewrites": "count", "ir.print_ms": "ms", "nlp.tokens_ms": "ms",
    "alive.verify_s": "s", "smt.checks": "count", "smt.conflicts": "count",
    "smt.decisions": "count", "smt.propagations": "count", "smt.props_per_conflict": "ratio",
    "rl.zero_s": "s", "rl.warmup_s": "s", "rl.correctness_s": "s", "rl.latency_s": "s",
    "rl.nonverify_s": "s",
    "alive.tier1_s": "s", "alive.tier1_hits": "count", "alive.tier2_s": "s",
    "alive.tier2_runs": "count", "alive.cache_hit_ratio": "ratio",
    "llm.generate_ms": "ms", "alive.verify_text_ms": "ms", "cost.metrics_ms": "ms",
    "store.open_ms": "ms", "store.hits": "count", "store.misses": "count",
    "store.writes": "count", "store.hit_ratio": "ratio",
    "serve.engine_calls": "count", "serve.coalesced_ratio": "ratio",
    "serve.admission_refused": "count", "serve.depth_max": "count",
    "serve.service_ewma_bulk_ms": "ms", "serve.gen_late_ms": "ms", "serve.submit_ms": "ms",
    "serve.idle_s": "s", "serve.await_s": "s",
    "vproc.frames": "count", "vproc.respawned": "count",
    "suite.kept": "count", "other_s": "s", "trace.overhead_pct": "%",
}

STATE = ".perfbench"
EXE = os.path.join(STATE, "_build", "default", "perfbench", "bench.exe")
SOURCES = ("dune-project", "lib", "bin", "perfbench")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def group_alive(pgid):
    """True while any process of the group is still running (not a zombie)."""
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def stop_group(pgid):
    """Kill whatever the launched process left in its group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while group_alive(pgid) and time.time() < deadline:
        time.sleep(0.05)


def launch(cmd, env, timeout):
    """Run cmd in its own process group and wait for the whole group.
    Returns the launch instant and the JSON lines it printed."""
    t0 = time.time()
    p = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_group(p.pid)
        p.communicate()
        die(f"timed out after {timeout}s: {' '.join(cmd)}")
    finally:
        stop_group(p.pid)
    if p.returncode != 0:
        sys.stderr.write(err[-4000:])
        die(f"exit code {p.returncode}: {' '.join(cmd)}")
    return t0, [json.loads(l) for l in out.splitlines() if l.startswith("{")]


def tail(xs):
    """The highest percentile with at least ten samples beyond it (the median
    when that percentile would fall below it)."""
    s = sorted(xs)
    return statistics.median(s) if len(s) < 21 else s[len(s) - 11]


def latency_block(ms):
    n = len(ms)
    return {"n": n, "p50_ms": statistics.median(ms) if ms else None,
            "tail_ms": tail(ms) if ms else None,
            "tail_pct": 50.0 if n < 21 else 100.0 * (n - 10) / n}


def item_latencies(recs):
    """Each item's median latency over the passes, so percentiles are taken
    over distinct inputs: {key: (class, ms, in_p50, fast)}."""
    seen = {}
    for r in recs:
        for key, cls, ms, in_p50, fast in r["items"]:
            seen.setdefault(key, (cls, [], in_p50, fast))[1].append(ms)
    return {k: (c, statistics.median(v), p, f) for k, (c, v, p, f) in seen.items()}


def source_digest(root):
    """SHA-256 over the sources the benchmark builds (the checkout may not be
    a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            for f in fs if not f.endswith((".pyc",)) and "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, root).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build(root):
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found")
    os.makedirs(os.path.join(root, STATE), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(root, STATE, "cache"))
    cmd = [dune, "build", "--root", ".", "--build-dir", os.path.join(root, STATE, "_build"),
           "--profile", "release", "--display", "quiet", "./perfbench/bench.exe"]
    p = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True, timeout=850)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        die("build failed")


def pinned_env(workload, scratch):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("VERIOPT_") and k not in ("OCAMLRUNPARAM", "QCHECK_SEED")}
    env.update({
        "VERIOPT_JOBS": "1",
        "VERIOPT_ISOLATE": "proc" if workload == "serve" else "domain",
        "VERIOPT_PROC_JOBS": "2",
        "TMPDIR": scratch,
    })
    return env


def guard(root, args, rec, source):
    """Fail a workload whose counters or output digest differ from an earlier
    run of the same source at the same seed (serve: per-class verdict counts
    only, since coalescing depends on timing)."""
    d = os.path.join(root, STATE, "guard")
    os.makedirs(d, exist_ok=True)
    key = f"{args.workload}-s{args.seed}-t{args.seconds}-r{args.serve_rps}.json"
    now = {"source": source, "counters": rec["counters"],
           "digest": None if args.workload == "serve" else rec["digest"]}
    path = os.path.join(d, key)
    if os.path.exists(path):
        with open(path) as f:
            before = json.load(f)
        if before["source"] == source:
            return before["counters"] == now["counters"] and before["digest"] == now["digest"]
    with open(path, "w") as f:
        json.dump(now, f)
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--serve-rps", type=float, required=True,
                    help="fixed open-loop arrival rate of the serve workload")
    args = ap.parse_args()
    wl = args.workload

    root = os.getcwd()
    for f in ("dune-project", "lib", "perfbench/dune", "perfbench/bench.ml"):
        if not os.path.exists(os.path.join(root, f)):
            die(f"run from the root of a source checkout ({f} is missing)")
    build(root)
    exe = os.path.join(root, EXE)
    source = source_digest(root)

    base = os.path.join(root, STATE, "tmp")
    os.makedirs(base, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{wl}-", dir=base)
    env = pinned_env(wl, scratch)
    common = [wl, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--rate", str(args.serve_rps), "--dir"]
    spans = os.path.join(root, STATE, "traces", f"{wl}-s{args.seed}.jsonl")
    setups, untraced, traced = [], [], []
    try:
        work = os.path.join(scratch, "work")
        os.makedirs(work)
        launches = SETUP_LAUNCHES[wl] if not args.trace else (1 if wl == "warm" else 0)
        for k in range(launches):
            work = os.path.join(scratch, f"setup{k}")
            os.makedirs(work)
            t0, lines = launch([exe, *common, work, "--setup-only"], env, 170)
            setups.append(lines[0]["ready"] - t0)
        # passes repeat while the next one is expected to end within
        # --seconds; the traced run alternates untraced and traced passes,
        # so the tracing overhead compares like with like
        begin, k, last = time.time(), 0, 0.0
        while (k < MIN_PASSES[wl] * (1 + args.trace)
               or time.time() - begin + last <= args.seconds):
            is_traced = args.trace == 1 and k % 2 == 1
            started = time.time()
            cmd = [exe, *common, work]
            if k == 0:
                cmd.append("--check")
            if is_traced:
                os.makedirs(os.path.dirname(spans), exist_ok=True)
                cmd += ["--trace", "--spans", spans]
            t0, (ready, rec) = launch(cmd, env, 2 * args.seconds + 120)
            if wl != "warm":
                setups.append(ready["ready"] - t0)
            (traced if is_traced else untraced).append(rec)
            k, last = k + 1, time.time() - started
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    first = untraced[0]
    runs = untraced + traced
    same = all(r["counters"] == first["counters"] and r["digest"] == first["digest"]
               for r in runs)
    repeats = guard(root, args, first, source)
    correct = same and repeats and first["mismatched"] == 0

    items = item_latencies(untraced)
    p50_items = [ms for _, ms, in_p50, _ in items.values() if in_p50]
    fast_items = [ms for _, ms, _, fast in items.values() if fast]
    classes = sorted({c for c, _, _, _ in items.values() if c != "-"})
    pass_s = statistics.median(r["pass_s"] for r in untraced)
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": pass_s,
        "p50_ms": statistics.median(p50_items),
        "tail_ms": tail(p50_items),
        "fast_p50_ms": statistics.median(fast_items),
        "decided_share": first["decided_share"],
        "different_correct": first["different_correct"],
        "geomean_speedup": first["geomean_speedup"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    if args.trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in PER_LAYER if k != "trace.overhead_pct"}
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(r["pass_s"] for r in traced) / pass_s - 1.0)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    record = {
        "workload": wl, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "serve_rps": args.serve_rps, "source_sha256": source, "nproc": os.cpu_count(),
        "env": {k: v for k, v in env.items() if k.startswith("VERIOPT_")},
        "passes": len(untraced), "traced_passes": len(traced),
        "pass_s_all": [r["pass_s"] for r in untraced], "setup_s_all": setups,
        "items": latency_block(p50_items), "fast": latency_block(fast_items),
        "classes": {c: latency_block([ms for cc, ms, _, _ in items.values() if cc == c])
                    for c in classes},
        "counters": first["counters"], "digest": first["digest"], "stats": first["stats"],
        "deterministic": same, "repeats_earlier_run": repeats,
        "checked": first["checked"], "mismatched": first["mismatched"],
        "unsupported": first["unsupported"], **values,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": bool(correct),
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
