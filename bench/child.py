"""One benchmark child: a fresh interpreter that runs a workload once.

    python3 bench/child.py {setup|run|selftest} WORKLOAD SEED SCRATCH TRACE

The child imports ``biersphere`` and ``biersphere.cli`` first and stamps the
monotonic clock, which is shared with the parent, so the parent can compute
set-up time from its own spawn time.  It writes ``result.json`` into SCRATCH.
Modes: ``setup`` only imports; ``run`` runs every operation of the workload
and records the exception type of each one that fails; ``selftest`` counts
the ``canonical_form`` calls of a fresh ``enumerate_complexes(4)`` and
``enumerate_complexes(5)`` under the tracer.
"""

import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import biersphere  # noqa: E402
import biersphere.cli  # noqa: E402,F401

IMPORTED = time.monotonic()


def run_ops(workload: str, seed: int, scratch: Path) -> list[dict]:
    from workloads import WORKLOADS

    records = []
    for name, op in WORKLOADS[workload](seed, scratch):
        record = {"name": name, "error": None}
        try:
            op()
        except Exception as exc:  # every failure is counted, never filtered
            record["error"] = type(exc).__name__
            record["message"] = str(exc)[:300]
            traceback.print_exc()
        records.append(record)
    return records


def selftest(tracer) -> dict:
    from biersphere import classify

    counts = {}
    for m in (4, 5):
        before = tracer.count("classify.canonical_form")
        classify.enumerate_complexes(m)
        counts[f"m{m}"] = tracer.count("classify.canonical_form") - before
    return counts


def main(argv: list[str]) -> int:
    mode, workload, seed, scratch, trace = argv
    scratch = Path(scratch)
    result = {"imported": IMPORTED, "ops": []}
    tracer = None
    if mode == "selftest" or (mode == "run" and trace == "1"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if mode == "run":
        result["ops"] = run_ops(workload, int(seed), scratch)
    elif mode == "selftest":
        result["selftest"] = selftest(tracer)
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None and mode == "run":
        result["layers"] = tracer.metrics()
    (scratch / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
