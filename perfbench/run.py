"""knotcert benchmark: certificate round trips and the exact invariant engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Workloads (see README.md):

  certify-z3        knotcert certify + verify_certificate, cover Z_3
  certify-zq        the same round trip on covers Z_5, Z_7 and Z_9
  invariants-dense  Alexander polynomial, signature function, pointwise
                    signatures and cover homology of dense matrices

Every operation's output is checked by perfbench/checks.py, which does
not import the program.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics (from layers.py wrappers) with
--trace 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from time import perf_counter

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable
# every child is killed once the run has taken this long, so a hung
# operation fails instead of stalling the run
RUN_BUDGET_S = 150
SETUP_REPEATS = 5

PER_LAYER = (
    ("cli.startup_ms", "ms"),
    ("certify.certify_ms", "ms"),
    ("certify.verify_ms", "ms"),
    ("certify.serialize_ms", "ms"),
    ("certify.cert_bytes", "bytes"),
    ("certify.combos", "count"),
    ("obstruction.sweep_ms", "ms"),
    ("obstruction.subgroups_swept", "count"),
    ("obstruction.digest_ms", "ms"),
    ("obstruction.witnesses_digested", "count"),
    ("obstruction.replay_ms", "ms"),
    ("obstruction.replays", "count"),
    ("subgroups.enumerate_ms", "ms"),
    ("subgroups.enumerated", "count"),
    ("knots.evaluate_ms", "ms"),
    ("signatures.ordering_ms", "ms"),
    ("signatures.root_point_ms", "ms"),
    ("signatures.root_points", "count"),
    ("signatures.regular_point_ms", "ms"),
    ("signatures.regular_points", "count"),
    ("polynomials.det_poly_ms", "ms"),
    ("covers.homology_ms", "ms"),
)
# read by the benchmark from the certificate files, not from a wrapper
FROM_CERTIFICATES = ("certify.cert_bytes", "certify.combos")
# per-layer counts read from the wrappers' call or item counters
COUNT_SOURCES = {
    "obstruction.subgroups_swept": "obstruction.sweep",
    "obstruction.witnesses_digested": "obstruction.witnesses_digested",
    "obstruction.replays": "obstruction.replay",
    "subgroups.enumerated": "subgroups.enumerate",
    "signatures.root_points": "signatures.root_point",
    "signatures.regular_points": "signatures.regular_point",
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # one BLAS thread: the program's matrices are small, and idle BLAS
    # threads only add noise on a small machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd, env, deadline):
    now = time.monotonic()
    env = dict(env, PERFBENCH_SPAWNED=repr(now))
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - now))


def peak_rss_mb():
    # ru_maxrss of RUSAGE_CHILDREN is the largest single child, in KiB
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def layer_metrics(ms, counts, startup_ms, extra, ops):
    out = {}
    for name, unit in PER_LAYER:
        if name == "cli.startup_ms":
            value = statistics.median(startup_ms) if startup_ms else 0.0
        elif name in FROM_CERTIFICATES:
            value = extra.get(name, 0) / ops
        elif unit == "ms":  # "x.y_ms" reads the wrapper named "x.y"
            value = ms.get(name[:-3], 0.0) / ops
        else:
            value = counts.get(COUNT_SOURCES[name], 0) / ops
        out[name] = {"value": value, "unit": unit}
    return out


def merge(ms, counts, record):
    for k, v in record["ms"].items():
        ms[k] = ms.get(k, 0.0) + v
    for k, v in record["counts"].items():
        counts[k] = counts.get(k, 0) + v


# ---------------------------------------------------------------------------
# certify workloads

def cli_args(job, cert_path):
    a, b = job["pattern"]
    args = ["certify", "--pattern", f"whitehead:{a},{b}",
            "--family", job["family"], "--mode", "exhaustive",
            "--budget", str(job["budget"]),
            "--max-group-order", str(job["max_group_order"]),
            "--output", str(cert_path)]
    if job["cap"] is not None:
        args += ["--per-side-cap", str(job["cap"])]
    return args


def round_trip(job, idx, work, env, args):
    """Run one certify + verify round trip; returns its record."""
    cert = work / f"cert-{idx}.json"
    traces = [work / f"trace-{idx}-cli.json", work / f"trace-{idx}-verify.json"]
    if args.trace:
        cmd_cli = [PY, str(BENCH / "child.py"), "--trace", str(traces[0]), "cli"]
        cmd_verify = [PY, str(BENCH / "child.py"), "--trace", str(traces[1])]
    else:
        cmd_cli = [PY, "-m", "knotcert.cli"]
        cmd_verify = [PY, str(BENCH / "child.py")]
    t0 = perf_counter()
    verified = None
    try:
        done = spawn(cmd_cli + cli_args(job, cert), env, args.deadline)
        returncode, stderr = done.returncode, done.stderr[-500:]
        if returncode == 0:
            checked = spawn(cmd_verify + ["verify", str(cert)], env,
                            args.deadline)
            if checked.returncode == 0 and checked.stdout.strip():
                verified = json.loads(checked.stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired as ex:
        returncode, stderr = None, f"timed out after {ex.timeout} s"
    latency = perf_counter() - t0
    return {"job": job, "cert": cert, "traces": traces, "latency": latency,
            "returncode": returncode, "stderr": stderr, "verified": verified}


def tally(records, problems_of, describe):
    """(failed, wrong): operations that failed, and those among them that
    ran to the end but whose output is wrong.  problems_of(record) gives
    (ran, problems)."""
    failed = wrong = 0
    for rec in records:
        ran, problems = problems_of(rec)
        if problems:
            failed += 1
            wrong += ran
            print(f"FAILED {describe(rec)}: {problems[:5]}", file=sys.stderr)
    return failed, wrong


def certify_problems(rec):
    if rec["returncode"] != 0:
        return False, [f"knotcert certify exited {rec['returncode']}: "
                       f"{rec['stderr']}"]
    if rec["verified"] is None:
        return False, ["verify_certificate did not report"]
    with open(rec["cert"]) as fh:
        cert = json.load(fh)
    return True, checks.check_certificate(rec["job"], cert, rec["verified"])


def dense_problems(rec):
    job, out = rec
    if "error" in out:
        return False, [out["error"]]
    return True, checks.check_dense(job, out)


def certify_workload(rounds_of, args, work, env):
    t0 = perf_counter()
    rounds = rounds_of(args.seed)
    first = next(rounds)
    gen_s = perf_counter() - t0
    imports = []
    for _ in range(SETUP_REPEATS):
        t1 = perf_counter()
        done = spawn([PY, "-c", "import knotcert.cli"], env, args.deadline)
        imports.append(perf_counter() - t1)
        if done.returncode != 0:
            raise SystemExit(f"cannot import knotcert: {done.stderr}")
    setup_s = gen_s + statistics.median(imports)

    records = []
    start = time.monotonic()
    batch = first
    while True:
        for job in batch:
            records.append(round_trip(job, len(records), work, env, args))
        if time.monotonic() - start >= args.seconds:
            break
        batch = next(rounds)
    elapsed = time.monotonic() - start
    rss = peak_rss_mb()

    failed, wrong = tally(records, certify_problems, lambda r: r["job"]["family"])
    ms, counts, startup = {}, {}, []
    extra = dict.fromkeys(FROM_CERTIFICATES, 0)
    for rec in records:
        if not rec["cert"].is_file():
            continue
        extra["certify.cert_bytes"] += rec["cert"].stat().st_size
        with open(rec["cert"]) as fh:
            extra["certify.combos"] += len(json.load(fh).get("combos", ()))
        for path in rec["traces"] if args.trace else ():
            if not path.is_file():
                continue
            with open(path) as fh:
                record = json.load(fh)
            merge(ms, counts, record)
            startup.append(record["startup_ms"])
    latencies = [rec["latency"] for rec in records]
    return summarize(args, latencies, elapsed, setup_s, rss, failed, wrong,
                     (ms, counts, startup, extra))


# ---------------------------------------------------------------------------
# invariants-dense

def dense_workload(args, work, env):
    readies = []
    final = None
    for i in range(SETUP_REPEATS):
        out = work / f"dense-{i}.json"
        cmd = [PY, str(BENCH / "dense_worker.py"), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out", str(out)]
        if i < SETUP_REPEATS - 1:
            cmd.append("--setup-only")
        elif args.trace:
            cmd.append("--trace")
        done = spawn(cmd, env, args.deadline)
        if done.returncode != 0:
            raise SystemExit(f"dense worker failed: {done.stderr[-2000:]}")
        with open(out) as fh:
            final = json.load(fh)
        readies.append(final["ready"] - final["spawned"])
    rss = peak_rss_mb()

    jobs = (job for rnd in workloads.dense_rounds(args.seed) for job in rnd)
    failed, wrong = tally(list(zip(jobs, final["outputs"])), dense_problems,
                          lambda r: f"torus(2,{r[0]['n']}) conjugate")
    layers = final.get("layers", {"ms": {}, "counts": {}})
    return summarize(args, final["latencies"], final["elapsed"],
                     statistics.median(readies), rss, failed, wrong,
                     (layers["ms"], layers["counts"], [final["startup_ms"]], {}))


# ---------------------------------------------------------------------------

def summarize(args, latencies, elapsed, setup_s, rss, failed, wrong,
              layer_data):
    ops = len(latencies)
    p50_ms = statistics.median(latencies) * 1e3
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {ops} ops, "
          f"{failed} failed, p50 {p50_ms:.1f} ms, {elapsed:.1f} s timed, "
          f"setup {setup_s:.3f} s, peak rss {rss:.1f} MB", file=sys.stderr)
    if args.trace:
        metrics = layer_metrics(*layer_data, ops)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops / elapsed, "unit": "1/s"},
            "latency_p50_ms": {"value": p50_ms, "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    result = {"correct": wrong == 0, "attempted": ops,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, latencies_s=latencies, elapsed_s=elapsed)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1)
    return result


WORKLOADS = {
    "certify-z3": partial(certify_workload, workloads.certify_z3_rounds),
    "certify-zq": partial(certify_workload, workloads.certify_zq_rounds),
    "invariants-dense": dense_workload,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.deadline = time.monotonic() + RUN_BUDGET_S
    # a terminated run still kills and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "knotcert" / "__init__.py").is_file():
        print(f"error: no knotcert sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    # byte-compile once, untimed, so every interpreter imports from .pyc
    compileall.compile_dir(str(SRC / "knotcert"), quiet=1)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        result = WORKLOADS[args.workload](args, work, child_env())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
