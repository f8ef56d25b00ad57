"""invariants-dense worker: one interpreter, one warm-up, then timed rounds.

    python3 perfbench/dense_worker.py --seed N --seconds T --out FILE
        [--trace] [--setup-only]

Writes a JSON record to FILE: the monotonic instant it was ready (after
import, input generation and one untimed warm-up operation), and unless
--setup-only the latency and outputs of every timed operation, in the
order workloads.dense_rounds(seed) yields their inputs.
"""

import time

_started = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import knotcert  # noqa: E402
from knotcert import covers, knots  # noqa: E402

import workloads  # noqa: E402

_imported = time.monotonic()


def run_op(job):
    e = knotcert.raw(job["rows"])
    alex = knots.alexander_polynomial(e)
    sf = knotcert.signature_function(e, 2 * job["n"])
    lt = [knotcert.levine_tristram(e, x) for x in job["points"]]
    h1 = covers.homology_from_seifert(knots.evaluate(e))
    return {
        "alexander": list(alex.coeffs),
        "jumps": [str(x) for x in sf.jumps],
        "interval_values": list(sf.interval_values),
        "jump_values": list(sf.jump_values),
        "levine_tristram": lt,
        "homology": list(h1.factors),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    stats = None
    if args.trace:
        import layers
        stats = layers.install()
    rounds = workloads.dense_rounds(args.seed)
    first = next(rounds)
    run_op(workloads.dense_warmup())
    ready = time.monotonic()
    spawned = float(os.environ.get("PERFBENCH_SPAWNED", _started))
    record = {"spawned": spawned, "ready": ready,
              "startup_ms": (_imported - spawned) * 1e3}
    if not args.setup_only:
        if stats is not None:
            stats.reset()
        latencies, outputs = [], []
        start = time.monotonic()
        batch = first
        while True:
            for job in batch:
                t0 = perf_counter()
                try:
                    out = run_op(job)
                except Exception as ex:  # noqa: BLE001 - reported as a failed op
                    out = {"error": f"{type(ex).__name__}: {ex}"}
                latencies.append(perf_counter() - t0)
                outputs.append(out)
            if time.monotonic() - start >= args.seconds:
                break
            batch = next(rounds)
        record.update(elapsed=time.monotonic() - start, latencies=latencies,
                      outputs=outputs)
        if stats is not None:
            record["layers"] = stats.as_dict()
    with open(args.out, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
