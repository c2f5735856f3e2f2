"""eeikit benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload band-solve --seed 1 --seconds 24 --trace 0

Run from the repository root.  One process, one caller: each operation
starts when the previous one has returned and been checked against its
reference gate (:mod:`gates`).  A run repeats whole passes over the
workload's operations (:mod:`workloads`) while the next pass should end
within ``--seconds``.  Set-up time is the median of five fresh
interpreters, each timed from spawn to the end of its warm-up operation.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
leading operations untraced for a quarter of ``--seconds``, runs the
same ones traced, then probes every layer the workload does not reach
with one operation of each kind from the other workloads, and reports
every ``per_layer`` metric named in BENCHMARK.json.  Spans, the run
record and (untraced) every operation's wall time and the host-speed
readings around it go to ``.bench_out/``.

BLAS is pinned to one thread: operands are at most 8x8 and 8001 nodes,
and a single caller on a shared two-core box times most steadily so.

Every time the benchmark reports is scaled to a reference host speed
that it reads, between operations, from a fixed numpy probe
(:class:`HostSpeed`); the run record also gives the timing metrics in
unscaled wall time.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from statistics import median  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
# a traced run covers at least this many leading operations: a whole CLI
# pass, and every dimension of the band and search families
CLI_PASS = 13
DEFAULT_SEED = 31337
# Host-speed probe (see HostSpeed): its time on an unloaded core of the
# reference host, a 2-vCPU Xeon VM with Python 3.11 and numpy 2.4, and
# how long one reading of it is reused
PROBE_REF_S = 2.5e-4
PROBE_EVERY_S = 0.05


def _load_eeikit():
    """Put the checkout's own sources first; refuse to run without them."""
    if SRC in sys.path:
        return
    if not os.path.isfile(os.path.join(SRC, "eeikit", "__init__.py")):
        sys.exit(f"bench: no eeikit sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import eeikit

    if not os.path.abspath(eeikit.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported eeikit from {eeikit.__file__}, not from {SRC}")


class HostSpeed:
    """How fast this core runs right now, read from a fixed numpy probe.

    Other tenants of a shared host slow its cores by up to 2x, for
    seconds to minutes at a time.  Process CPU time slows with wall time
    (the guest is charged no steal time) and the guest has no hardware
    counters, so the benchmark measures the slowdown itself.  The probe
    is a fixed loop of 8x8 numpy calls that runs no eeikit code; a
    reading is the fastest of three runs of it, taken right before and
    right after each timed interval (and reused for up to PROBE_EVERY_S).
    The interval's wall time is scaled by PROBE_REF_S over the mean of
    the two readings: seconds at the reference host's speed.  A change
    in eeikit's own cost moves the scaled time in full.
    """

    def __init__(self):
        self._at = -math.inf
        self.reading = PROBE_REF_S

    @staticmethod
    def _probe() -> float:
        import numpy as np

        a = np.eye(8) + 0.1
        t0 = time.perf_counter()
        for _ in range(12):
            np.linalg.eigh(a)
            np.linalg.slogdet(a @ a)
        return time.perf_counter() - t0

    def now(self) -> float:
        if time.perf_counter() - self._at >= PROBE_EVERY_S:
            self.reading = min(self._probe() for _ in range(3))
            self._at = time.perf_counter()
        return self.reading


SPEED = HostSpeed()


def _pin_to_one_core():
    """Run this process and every process it starts on one core.

    The speed probe can only read the core it runs on, so the operations,
    and the CLI and set-up processes they wait for, must run there too.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _setup(workload: str, seed: int):
    """Import eeikit, generate the inputs and run one untimed warm-up."""
    _load_eeikit()
    from tracing import Tracer
    from workloads import WORKLOADS

    ops = WORKLOADS[workload](seed, ROOT)
    ops[0].gate(ops[0].run(Tracer(False)))
    return ops


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh-interpreter set-up times, spawn to the end of the warm-up,
    scaled to the reference speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    spawns = Phase()
    for _ in range(SETUP_PROBES):
        before = SPEED.now()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != b"ready":
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        spawns.record(elapsed, before)
    return spawns.scaled()


class Phase:
    """Outcome of whole passes over a workload's operations, closed loop."""

    def __init__(self):
        self.wall: list[float] = []
        self.speed: list[float] = []  # HostSpeed readings around each operation
        self.verdicts: list = []
        self.failures: list[str] = []
        self.outputs: list = []

    def record(self, wall: float, before: float) -> None:
        """One timed interval, and the host speed read before and after it."""
        self.wall.append(wall)
        self.speed += [before, SPEED.now()]

    def scaled(self) -> list[float]:
        """Wall times at the reference speed (:class:`HostSpeed`)."""
        return [2.0 * PROBE_REF_S * t / (self.speed[2 * i] + self.speed[2 * i + 1])
                for i, t in enumerate(self.wall)]

    @staticmethod
    def op_medians(size: int, times: list[float]) -> list[float]:
        """Every timed operation's time replaced by the median of its repeats.

        Entry ``i`` becomes the median of ``times`` over the run's repeats
        of operation ``i % size`` of the pass: each operation keeps its
        count of samples, and the noise between its repeats is taken out.
        """
        per_op = [median(times[i::size]) for i in range(size)]
        return [per_op[i % size] for i in range(len(times))]

    def pass_rates(self, size: int, times: list[float]) -> list[float]:
        """Passing operations per second of operation time, for each pass."""
        return [
            sum(v.passed for v in self.verdicts[i:i + size]) / sum(times[i:i + size])
            for i in range(0, len(times), size)
        ]


def _run_op(op, tr, phase: Phase, keep_output=False):
    from gates import Verdict

    before = SPEED.now()
    t0 = time.perf_counter()
    try:
        out = tr.call(f"op.{op.kind}", op.run, tr)
    except Exception as exc:  # an operation that raises is a failed operation
        wall = time.perf_counter() - t0
        verdict = Verdict(False, None, f"raised {type(exc).__name__}: {exc}")
    else:
        wall = time.perf_counter() - t0
        verdict = None
    phase.record(wall, before)
    if verdict is None:
        try:
            verdict = op.gate(out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            verdict = Verdict(False, None, f"output cannot be checked: {exc!r}")
        if keep_output:
            phase.outputs.append(out)
    phase.verdicts.append(verdict)
    if not verdict.passed:
        phase.failures.append(f"{op.kind}: {verdict.detail}")


def _closed_loop(ops, tr, seconds=None, count=None, keep_first_pass=False) -> Phase:
    """Run ``ops`` in order, each call waiting for the one before.

    With ``count``, exactly that many operations.  Otherwise whole passes,
    as long as the next pass, timed like the ones before it, should end
    within ``seconds``; at least one.
    """
    phase = Phase()
    t0 = time.perf_counter()
    i = 0
    while i < count if count is not None else (
            i % len(ops) or i == 0
            or (time.perf_counter() - t0) * (1 + len(ops) / i) <= seconds):
        tr.op_id = i
        _run_op(ops[i % len(ops)], tr, phase, keep_output=keep_first_pass and i < len(ops))
        i += 1
    return phase


def _timed_prefix(ops, seconds, at_least) -> Phase:
    """Untraced operations from the start until ``seconds`` and ``at_least``."""
    from tracing import Tracer

    phase, tr = Phase(), Tracer(False)
    t0 = time.perf_counter()
    i = 0
    while i < at_least or time.perf_counter() - t0 < seconds:
        _run_op(ops[i % len(ops)], tr, phase)
        i += 1
    return phase


def _quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta-weighted mean of all order statistics rather than one of
    them, so it does not jump when a few latencies trade places.
    """
    import numpy as np
    from scipy.special import betainc

    n = len(xs)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ np.sort(xs))


def _tail_share(n: int) -> float:
    """Highest quantile with at least ten samples beyond it (else the median)."""
    return max((n - 10) / n, 0.5)


def _end_to_end(phase: Phase, size: int, setup: list[float], children: bool):
    """The end-to-end metrics of whole passes of ``size`` operations.

    Times are scaled to the reference speed (:class:`HostSpeed`).
    ops_per_s is the median over passes, so a stretch of the run slowed
    by other load on the machine moves it less.  op_s_p50 and op_s_tail
    are quantiles over every timed operation, each taken at the median
    of its operation's repeats: with few operations in a pass the tail
    quantile falls between two of them, and single repeats would swing
    it from one to the other.  digits_min is taken over the first pass,
    every distinct operation once.
    """
    from gates import digits

    passed = sum(v.passed for v in phase.verdicts)
    errors = [v.rel_error for v in phase.verdicts[:size] if v.rel_error is not None]
    share = _tail_share(len(phase.wall))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    latency = phase.scaled()
    typical = phase.op_medians(size, latency)
    metrics = {
        "ops_per_s": (median(phase.pass_rates(size, latency)), "ops/s"),
        "op_s_p50": (_quantile(typical, 0.5), "s"),
        "op_s_tail": (_quantile(typical, share), "s"),
        "pass_ratio": (passed / len(phase.verdicts), "passed/attempted"),
        "digits_min": (digits(max(errors)), "digits"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    notes = {
        "op_s_tail": {"percentile": 100.0 * share, "samples": len(latency),
                      "beyond": round(len(latency) * (1.0 - share))},
        "unscaled_wall": {
            "ops_per_s": median(phase.pass_rates(size, phase.wall)),
            "op_s_p50": _quantile(phase.op_medians(size, phase.wall), 0.5),
            "op_s_tail": _quantile(phase.op_medians(size, phase.wall), share),
        },
        "speed_factor_median": PROBE_REF_S / median(phase.speed),
        "setup_s_samples": setup,
        "gated_against_reference_value": len(errors),
    }
    return metrics, notes


def _probe_ops(workload: str, seed: int):
    """One operation of each kind from the other workloads."""
    from workloads import WORKLOADS

    for name, build in WORKLOADS.items():
        if name == workload:
            continue
        seen = set()
        for op in build(seed, ROOT):
            if op.kind not in seen:
                seen.add(op.kind)
                yield op


def _per_layer(spec: list, tr, ops, first_outputs, overhead) -> dict:
    """Every per-layer metric named in BENCHMARK.json; counts are per pass."""
    durations = tr.durations()
    counts = {
        "oracle.search.trials": sum(op.work["trials"] for op in ops),
        "oracle.quadrature.grid_nodes": sum(op.work["grid_nodes"] for op in ops),
        "construct.eei_optimum.calls": sum(op.work["eei_optimum_calls"] for op in ops),
        "cli.report_bytes": sum(len(getattr(out, "stdout", b"")) for out in first_outputs),
        "trace.overhead_ratio": overhead,
    }
    metrics = {}
    for m in spec:
        name = m["name"]
        if name in counts:
            value = counts[name]
        elif name.endswith(".self_s"):
            value = median(tr.self_times(name[: -len(".self_s")]))
        elif name.endswith(".s_p50"):
            base = name[: -len(".s_p50")]
            if base not in durations:
                raise RuntimeError(f"no span recorded for layer {base}")
            value = median(durations[base])
        else:
            raise RuntimeError(f"BENCHMARK.json names an unknown layer metric {name}")
        metrics[name] = (value, m["unit"])
    return metrics


def _run_record(args, ops) -> dict:
    import ctypes

    import numpy as np

    mix: dict[str, int] = {}
    for op in ops:
        mix[op.kind] = mix.get(op.kind, 0) + 1
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.decode().strip() or "unknown"
    except OSError:
        commit = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc = ctypes.CDLL(None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "l2_cache_bytes": libc.sysconf(191),  # _SC_LEVEL2_CACHE_SIZE
        "l3_cache_bytes": libc.sysconf(194),  # _SC_LEVEL3_CACHE_SIZE
        "ops_per_pass": len(ops),
        "mix_per_pass": mix,
    }


def _print_result(correct, attempted, failed, metrics, record):
    for name, (value, unit) in metrics.items():
        print(f"  {name:<45} {value:>14.6g} {unit}")
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    with open(os.path.join(OUT, f"{stem}.record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("band-solve", "search-oracle", "certify-checks", "cli-oneshot"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    _load_eeikit()
    os.makedirs(OUT, exist_ok=True)
    _pin_to_one_core()
    setup = _setup_seconds(args.workload, args.seed)
    ops = _setup(args.workload, args.seed)
    from tracing import Tracer

    record = _run_record(args, ops)
    children = args.workload == "cli-oneshot"
    if not args.trace:
        phase = _closed_loop(ops, Tracer(False), seconds=args.seconds)
        metrics, notes = _end_to_end(phase, len(ops), setup, children)
        phases = [phase]
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}.samples.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"kinds": [op.kind for op in ops], "wall_s": phase.wall,
                       "speed_readings_s": phase.speed}, fh)
    else:
        # the same leading operations untraced, then traced: their time
        # ratio is the tracing overhead, attribution sub-calls included
        plain = _timed_prefix(ops, args.seconds / 4, min(len(ops), CLI_PASS))
        tr = Tracer(True)
        traced = _closed_loop(ops, tr, count=len(plain.wall), keep_first_pass=True)
        probes = Phase()
        tr.op_id = -1
        for op in _probe_ops(args.workload, args.seed):
            _run_op(op, tr, probes)
        overhead = sum(traced.scaled()) / sum(plain.scaled())
        metrics = _per_layer(spec["per_layer"], tr, ops, traced.outputs, overhead)
        notes = {"probe_ops": len(probes.verdicts)}
        phases = [plain, traced, probes]
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(tr.spans, fh)
    attempted = sum(len(p.verdicts) for p in phases)
    failures = [f for p in phases for f in p.failures]
    record.update(notes, attempted=attempted, failures=failures)
    for f in failures:
        print(f"FAILED {f}")
    _print_result(not failures, attempted, len(failures), metrics, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
