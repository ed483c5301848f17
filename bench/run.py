"""The biersphere benchmark harness (standard library only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs as a closed loop with one client: one fresh child
interpreter at a time (``bench/child.py``), the next spawned when the
previous one has been reaped, with no threads and no pool.  A fresh
interpreter per operation is what a user of the ``bier`` command pays,
including the ``lru_cache`` fills inside the package.  The loop spawns
children until the next one would end further past ``--seconds`` than the
run has reached.

With ``--trace 0`` every child runs on one core, each workload child beside
the yardstick, a fixed reference loop (``bench/reference.py``) at a lower
priority.  The run reports the end-to-end metrics: the workload child's user
plus system CPU time counted in yardstick units (the host's changes of
speed cancel in it), its peak resident memory, and set-up time (spawn until
``biersphere`` and ``biersphere.cli`` are imported) in seconds.
``--trace 1`` also runs the tracer's self-test, then alternates untraced and
traced children and reports the per-layer metrics of the traced ones plus
the tracing overhead.

The last stdout line is one JSON object; the metric names and units are
those listed in ``BENCHMARK.json``.  Set-up runs, the self-test and the
workload children all stay under ``.bench_tmp/`` in the checkout, which is
removed at the end.  Linux only: it uses ``posix_spawn``, ``pidfd_open``,
``wait4`` and ``sched_setaffinity``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
YARDSTICK = Path(__file__).resolve().parent / "reference.py"
YARDSTICK_NICE = 10  # about a tenth of the core, sampled all through the child
TMP = ROOT / ".bench_tmp"
HARD_LIMIT_S = 165.0  # no run may pass 180 s, whatever --seconds says
SETUP_PROBES = 15
SELFTEST_EXPECTED = {"m4": 166, "m5": 7579}  # Dedekind M(4) - 2; same at m = 5


@dataclass
class Sample:
    """One child: its measurements and what it reported."""

    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    exit_code: int
    timed_out: bool
    setup_s: float | None = None
    result: dict = field(default_factory=dict)
    stderr_tail: str = ""
    ref_units: int = 0  # yardstick units completed beside the child
    ref_cpu_s: float = 0.0  # the yardstick's CPU time for them

    @property
    def cpu_ref(self) -> float:
        """The child's CPU time in thousands of yardstick units."""
        return self.cpu_s * self.ref_units / self.ref_cpu_s / 1000

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.timed_out and bool(self.result)


class Yardstick:
    """``bench/reference.py`` running on one core for the length of a block.

    It is started, and has printed ``ready``, before the block runs; at the
    end it is stopped, reaped, and its count of units and CPU time read."""

    def __init__(self, cpu: int, scratch: Path):
        self.cpu = cpu
        self.out = scratch / "yardstick.txt"
        self.err = scratch / "yardstick-stderr.txt"
        self.units, self.cpu_s = 0, 0.0

    def __enter__(self) -> "Yardstick":
        argv = [sys.executable, str(YARDSTICK), str(self.out), str(self.cpu), str(YARDSTICK_NICE)]
        read_end, write_end = os.pipe()
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, write_end, 1),
            (os.POSIX_SPAWN_OPEN, 2, str(self.err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        try:
            self.pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
        finally:
            os.close(write_end)
        try:
            ready = select.select([read_end], [], [], 30.0)[0] and os.read(read_end, 16)
            if ready != b"ready\n":
                raise SystemExit(f"the yardstick did not start: {self.err.read_text()[-500:]}")
        except BaseException:
            self.stop()
            raise
        finally:
            os.close(read_end)
        return self

    def stop(self) -> None:
        os.kill(self.pid, signal.SIGTERM)
        os.wait4(self.pid, 0)

    def __exit__(self, *exc) -> None:
        self.stop()
        if self.out.exists():
            units, cpu_s = self.out.read_text().split()
            self.units, self.cpu_s = int(units), float(cpu_s)


def spawn(
    mode: str, workload: str, seed: int, trace: int, run_dir: Path, timeout: float,
    yardstick_cpu: int | None = None,
) -> Sample:
    """Run one child to completion (killing it after ``timeout``) and reap it;
    with ``yardstick_cpu``, beside the yardstick on that core."""
    scratch = Path(tempfile.mkdtemp(dir=run_dir))
    argv = [sys.executable, str(CHILD), mode, workload, str(seed), str(scratch), str(trace)]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(scratch / "stdout.txt"), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(scratch / "stderr.txt"), flags, 0o644),
    ]
    stick = Yardstick(yardstick_cpu, scratch) if yardstick_cpu is not None else None
    with stick or nullcontext():
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
        timed_out = False
        try:
            pidfd = os.pidfd_open(pid)
            try:
                if not select.select([pidfd], [], [], max(timeout, 0.0))[0]:
                    timed_out = True
                    os.kill(pid, signal.SIGKILL)
            finally:
                os.close(pidfd)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        _, status, usage = os.wait4(pid, 0)
        end = time.monotonic()
    sample = Sample(
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024,
        exit_code=os.waitstatus_to_exitcode(status),
        timed_out=timed_out,
    )
    if stick is not None:
        sample.ref_units, sample.ref_cpu_s = stick.units, stick.cpu_s
    result_file = scratch / "result.json"
    if result_file.exists():
        sample.result = json.loads(result_file.read_text())
        sample.setup_s = sample.result["imported"] - start
    sample.stderr_tail = (scratch / "stderr.txt").read_text()[-2000:]
    shutil.rmtree(scratch)
    return sample


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def stamp(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_rev, dirty = "none (not a git checkout)", None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()

        try:
            git_rev = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            git_rev = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_rev": git_rev,
        "git_dirty": dirty,
    }


def ops_of(samples: list[Sample]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed; a child that died counts as one
    failed operation."""
    attempted = failed = 0
    notes = []
    for s in samples:
        if not s.ok:
            attempted += 1
            failed += 1
            why = "timed out" if s.timed_out else f"exit code {s.exit_code}"
            notes.append(f"child {why}: {s.stderr_tail.strip()[-500:]}")
            continue
        for op in s.result["ops"]:
            attempted += 1
            if op["error"]:
                failed += 1
                notes.append(f"{op['name']}: {op['error']}: {op.get('message', '')}")
    return attempted, failed, notes


def measure(workload: str, seed: int, seconds: int, trace: int, run_dir: Path) -> dict:
    hard_deadline = time.monotonic() + HARD_LIMIT_S

    # An untraced run pins itself and so every child to one core, and runs
    # the yardstick beside each workload child on that core.
    yardstick_cpu = None
    if not trace:
        yardstick_cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {yardstick_cpu})

    def child(mode: str, traced: int = 0) -> Sample:
        return spawn(
            mode, workload, seed, traced, run_dir, hard_deadline - time.monotonic(),
            yardstick_cpu if mode == "run" else None,
        )

    warm = child("setup")  # compiles bytecode; also proves the program is there
    if not warm.ok:
        raise SystemExit(f"cannot start the program: {warm.stderr_tail.strip()}")
    deadline = time.monotonic() + seconds
    probes = [child("setup") for _ in range(SETUP_PROBES)]
    selftest = child("selftest") if trace else None

    plain: list[Sample] = []
    traced: list[Sample] = []
    while True:
        use_trace = bool(trace) and len(traced) < len(plain)
        sample = child("run", int(use_trace))
        (traced if use_trace else plain).append(sample)
        if sample.timed_out:
            break
        now = time.monotonic()
        typical = statistics.median(s.wall_s for s in plain + traced)
        if now + typical > hard_deadline:
            break
        if trace and not traced:
            continue  # a traced run needs one child of each kind
        if now + typical / 2 >= deadline:
            break  # stopping now falls short of the deadline by less than one more child would pass it

    attempted, failed, notes = ops_of(plain + traced)
    setups = [s.setup_s for s in probes if s.setup_s is not None]
    ok_plain = [s for s in plain if s.ok] or plain
    walls = [s.wall_s for s in ok_plain]
    cpus = [s.cpu_s for s in ok_plain]
    costs = [s.cpu_ref for s in ok_plain if s.ref_cpu_s > 0]
    rates = [s.ref_units / s.ref_cpu_s for s in ok_plain if s.ref_cpu_s > 0]
    end_to_end = {
        "cpu_ref": statistics.median(costs) if costs else -1.0,  # -1: no child ran beside it
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(s.peak_rss_mib for s in ok_plain),
    }
    report = {
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "runs": len(plain),
        "walls": walls,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "costs": costs,
        "rates": rates,
        "end_to_end": end_to_end,
    }
    if trace:
        layers = [s.result["layers"] for s in traced if s.ok]
        per_layer = {}
        if layers:
            # median_low keeps a count a whole number, as one child measured it
            per_layer = {
                name: statistics.median_low(d[name] for d in layers) for name in layers[0]
            }
            per_layer["trace.overhead_s"] = (
                statistics.median(s.wall_s for s in traced if s.ok) - report["wall_s"]
            )
        counts = selftest.result.get("selftest", {}) if selftest.ok else {}
        for key in SELFTEST_EXPECTED:
            per_layer[f"selftest.canonical_form.calls.{key}"] = counts.get(key, -1)
        report["attempted"] += 1
        if counts != SELFTEST_EXPECTED:
            report["failed"] += 1
            notes.append(f"tracer self-test: canonical_form calls {counts}, "
                         f"expected {SELFTEST_EXPECTED}: {selftest.stderr_tail.strip()[-500:]}")
        report["per_layer"] = per_layer
        report["traced_runs"] = len(traced)
    return report


def metric_block(values: dict, spec: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, with their units; a missing one is
    a harness error."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through spawn() and the clean-up below, so that no
    # child outlives the harness.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "biersphere" / "__init__.py").is_file():
        print(f"error: no biersphere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_stamp = stamp(args.workload, args.seed, args.seconds, args.trace)  # before pinning
    TMP.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
    try:
        report = measure(args.workload, args.seed, args.seconds, args.trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    print("stamp " + json.dumps(run_stamp))
    e2e = report["end_to_end"]
    tail = tail_percentile(report["walls"])
    tail_text = (
        f"p{tail[0]:.0f} {tail[1]:.3f} s" if tail
        else "tail percentile needs at least 11 runs"
    )
    ratio = report["failed"] / report["attempted"]
    print(
        f"{args.workload}: {report['runs']} runs "
        f"({', '.join(f'{w:.3f}' for w in report['walls'])} s); "
        f"wall_s median {report['wall_s']:.3f} s ({tail_text}); "
        f"cpu_s median {report['cpu_s']:.3f} s; "
        + (
            f"yardstick {', '.join(f'{r:.1f}' for r in report['rates'])} units/s; "
            f"cpu_ref {e2e['cpu_ref']:.4f} kunit "
            f"({', '.join(f'{c:.4f}' for c in report['costs'])}); "
            if report["costs"] else ""
        )
        + f"setup_s {e2e['setup_s']:.4f} s; peak_rss_mib {e2e['peak_rss_mib']:.1f} MiB; "
        + f"failed_ratio {ratio:g} ({report['failed']}/{report['attempted']})"
    )
    for note in report["notes"]:
        print(f"FAIL {note}")
    if args.trace:
        layers = report["per_layer"]
        print(
            f"traced: {report['traced_runs']} runs, "
            f"{layers.get('trace.spans', 0):.0f} spans, "
            f"overhead {layers.get('trace.overhead_s', float('nan')):.3f} s; "
            f"self-test canonical_form calls "
            f"{layers['selftest.canonical_form.calls.m4']:.0f} / "
            f"{layers['selftest.canonical_form.calls.m5']:.0f}"
        )
        metrics = metric_block(layers, spec["per_layer"])
    else:
        metrics = metric_block(e2e, spec["end_to_end"])
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
