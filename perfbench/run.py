"""Measured benchmark of the serving stack: one workload, one seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition is a fresh serving
process (``perfbench/serve.py``) that cold-starts the program, serves
one part of the seed's inputs through one ``Router.run`` call and
checks every answer against the oracle.  A seed has two parts: the
workload's arrival schedule with two independent draws of sources and
mutations.  Repetitions cycle through the parts until ``--seconds``
would be exceeded (each part at least once).  The measured metrics are
medians over the repetitions, the modeled metrics are pooled over the
parts, and time left over goes to processes that only set up, so
``setup_s`` is the median of every cold start in the run.  Repetitions
of a part must give identical answers, modeled metrics and exact
counts, or the run is marked incorrect.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics,
including the tracing overhead; the last traced repetition's spans are
written as Chrome trace-event JSON under ``.perfbench_out/``.

Stdout carries a host-context row, one row per repetition and, last,
the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    EXACT_LAYER,
    PER_LAYER,
    UNITS,
)
from perfbench.workloads import PARTS, WORKLOADS  # noqa: E402

#: Stop starting repetitions once the run could pass this, whatever
#: ``--seconds`` says; a process still running at ``RUN_LIMIT_S`` is
#: killed and the run fails (a run must end within 180 s).
HARD_CAP_S = 150.0
RUN_LIMIT_S = 175.0
OUT_DIR = ROOT / ".perfbench_out"


class BenchError(RuntimeError):
    """The program could not be run or measured."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # The in-process workloads are single-threaded; keep any BLAS pool
    # from adding threads the host does not have.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _reap_group(pgid: int) -> None:
    """Wait until every process of the child's group (its workers and
    helpers) has ended; kill what is left after 10 s."""
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
        time.sleep(0.05)


def _run_child(args: list[str], deadline: float) -> tuple[int, str]:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a process")
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args} did not finish within {timeout:.0f} s")
    finally:
        _reap_group(proc.pid)
    return proc.returncode, out


def serve_once(workload: str, seed: int, *, part: int = 0,
               trace: bool = False, scale: float = 1.0,
               setup_only: bool = False,
               deadline: float | None = None) -> dict:
    """One fresh serving process for one part of the seed's inputs;
    returns its result row plus ``ok`` (answers correct and accounted
    for) and ``elapsed_s``.  ``scale`` shrinks the stream (the
    self-check's reduced runs); ``setup_only`` stops once the process
    could serve; the process is killed at ``deadline`` (monotonic
    seconds; default :data:`RUN_LIMIT_S` from now)."""
    args = [
        "-m", "perfbench.serve",
        "--workload", workload, "--seed", str(seed), "--part", str(part),
        "--trace", "1" if trace else "0", "--scale", repr(scale),
    ]
    if setup_only:
        args.append("--setup-only")
    if trace:
        path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        args += ["--trace-path", str(path)]
    t0 = time.monotonic()
    if deadline is None:
        deadline = t0 + RUN_LIMIT_S
    code, out = _run_child(args, deadline)
    lines = out.strip().splitlines()
    if code not in (0, 3) or not lines:
        raise BenchError(f"serving process exited with code {code}")
    row = json.loads(lines[-1])
    row["ok"] = code == 0
    row["elapsed_s"] = time.monotonic() - t0
    return row


def host_context() -> dict:
    """Not gated: what a reader needs to tell host drift from a
    program change.  The two loops do fixed work."""
    import numpy as np

    t0 = time.perf_counter()
    x = np.arange(1_000_000, dtype=np.float32)
    y = x[::-1].copy()
    for _ in range(100):
        x = np.minimum(x, y + 1.0)
    numpy_loop_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    python_loop_s = time.perf_counter() - t0
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh
                 if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
        "numpy_loop_s": numpy_loop_s,
        "python_loop_s": python_loop_s,
    }


def _repetitions(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> tuple[list[dict], list[dict], list[float]]:
    """Serve repeatedly until the next repetition would overrun
    ``seconds``.  Returns ``(untraced rows, traced rows, set-up times)``.

    An untraced run cycles through the seed's :data:`PARTS` input parts
    (serving each at least once) and spends the time left over on
    set-up-only processes, so ``setup_s`` is the median of more cold
    starts than there are repetitions.  A traced run alternates
    untraced and traced repetitions of part 0."""
    start = time.monotonic()
    rows: dict[bool, list[dict]] = {False: [], True: []}
    kinds = [False, True] if trace else [False]
    min_reps = 1 if trace else PARTS

    def fits(cost: float) -> bool:
        now = time.monotonic() - start
        return now + cost <= HARD_CAP_S and (
            len(rows[False]) < min_reps or now + cost <= seconds
        )

    while True:
        for kind in kinds:
            part = 0 if trace else len(rows[False]) % PARTS
            row = serve_once(workload, seed, part=part, trace=kind,
                             deadline=deadline)
            print(json.dumps({"rep": {
                k: v for k, v in row.items()
                if k not in ("layers", "latencies_ms")
            }}), flush=True)
            rows[kind].append(row)
        if not fits(sum(max(r["elapsed_s"] for r in rows[k]) for k in kinds)):
            break
    setups = [r["setup_s"] for r in rows[False]]
    # A set-up-only process costs at most a repetition minus its serving.
    cost = max(r["elapsed_s"] - r["run_wall_s"] for r in rows[False])
    while not trace and fits(cost):
        row = serve_once(workload, seed, setup_only=True,
                         deadline=deadline)
        print(json.dumps({"setup": row}), flush=True)
        setups.append(row["setup_s"])
        cost = max(cost, row["elapsed_s"])
    return rows[False], rows[True], setups


def _identical(rows: list[dict], key) -> bool:
    return all(key(r) == key(rows[0]) for r in rows)


def pooled_modeled(firsts: list[dict]) -> dict[str, float]:
    """Modeled metrics over every query of the run's parts (one row per
    part): attainment and latency percentiles over the pooled queries,
    makespan averaged over the parts."""
    import numpy as np

    attempted = sum(r["attempted"] for r in firsts)
    latency = np.concatenate([r["latencies_ms"] for r in firsts])
    return {
        "served_fraction": sum(r["served"] for r in firsts) / attempted,
        "modeled_attainment": sum(r["slo_met"] for r in firsts) / attempted,
        "modeled_latency_p50_ms": float(np.percentile(latency, 50)),
        "modeled_latency_p95_ms": float(np.percentile(latency, 95)),
        "modeled_makespan_ms": float(
            np.mean([r["modeled"]["modeled_makespan_ms"] for r in firsts])
        ),
    }


def evaluate(untraced: list[dict], traced: list[dict],
             setups: list[float]) -> dict:
    """Fold the repetitions into the result object."""
    every = untraced + traced
    problems = [
        f"{r['workload']} seed {r['seed']} part {r['part']}: "
        f"{r['errors'] or 'unaccounted'}"
        for r in every if not r["ok"]
    ]
    parts = sorted({r["part"] for r in every})
    for part in parts:
        same = [r for r in every if r["part"] == part]
        for what, key in (
            ("answers", lambda r: r["digest"]),
            ("modeled metrics", lambda r: r["modeled"]),
            ("swaps", lambda r: r["swaps"]),
        ):
            if not _identical(same, key):
                problems.append(f"part {part}: {what} differ between "
                                "repetitions")
    if traced and not _identical(
        traced, lambda r: {k: r["layers"][k] for k in EXACT_LAYER}
    ):
        problems.append("exact per-layer counts differ between repetitions")
    for p in problems:
        print(p, file=sys.stderr)

    def median(rows, key):
        return statistics.median(key(r) for r in rows)

    if traced:
        values = {
            name: median(traced, lambda r, n=name: r["layers"][n])
            for name, *_ in PER_LAYER
            if name != "trace.overhead_fraction"
        }
        values["trace.overhead_fraction"] = 1.0 - (
            median(traced, lambda r: r["wall_qps"])
            / median(untraced, lambda r: r["wall_qps"])
        )
    else:
        values = {
            "wall_qps": median(untraced, lambda r: r["wall_qps"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": median(untraced, lambda r: r["peak_rss_mb"]),
        }
        values.update(pooled_modeled(
            [next(r for r in untraced if r["part"] == p) for p in parts]
        ))
        assert set(values) == {name for name, *_ in END_TO_END}
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(json.dumps({"host": host_context()}), flush=True)
    try:
        # Untimed: compile bytecode and load the imports once, so the
        # first repetition's cold start is not also the checkout's.
        code, _ = _run_child(
            ["-c", "import repro.serving, repro.datasets.generators, "
                   "scipy.sparse.csgraph"],
            deadline,
        )
        if code != 0:
            raise BenchError(f"importing the program failed (code {code})")
        untraced, traced, setups = _repetitions(
            args.workload, args.seed, args.seconds, bool(args.trace),
            deadline,
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    result = evaluate(untraced, traced, setups)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
