"""One fresh-interpreter step of a certificate round trip.

    python3 perfbench/child.py [--trace OUT] cli ARGS...     knotcert CLI
    python3 perfbench/child.py [--trace OUT] verify CERT     verify_certificate

verify prints {"ok": ..., "problems": [...]} as its last stdout line.
With --trace, layer timers are installed after the import and written
to OUT together with the interpreter's start-up time, counted from the
monotonic instant the parent passed in PERFBENCH_SPAWNED.
"""

import time

_started = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main(argv):
    trace_out = None
    if argv[0] == "--trace":
        trace_out, argv = argv[1], argv[2:]
    import knotcert.cli
    from knotcert import certify

    imported = time.monotonic()
    stats = None
    if trace_out:
        import layers
        stats = layers.install()
    if argv[0] == "cli":
        code = knotcert.cli.run(argv[1:])
    else:
        with open(argv[1]) as fh:
            data = json.load(fh)
        ok, problems = certify.verify_certificate(data)
        print(json.dumps({"ok": ok, "problems": problems}))
        code = 0
    if stats is not None:
        spawned = float(os.environ.get("PERFBENCH_SPAWNED", _started))
        record = stats.as_dict()
        record["startup_ms"] = (imported - spawned) * 1e3
        with open(trace_out, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
