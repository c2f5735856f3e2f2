"""Command-line surface for constructions, verification, and applications.

Each invocation runs one operation, emits one report (JSON, CSV, or
text), and exits 0 when every checked margin is within tolerance, 1 when
a mathematical check fails, and 2 on usage or input errors, among them a
flag the command does not read.  JSON reports embed the library version
and, resolved, the command's flags and the common ``--tol --format
--timing``; only ``search`` draws, so only it takes ``--seed``.  Reports
are byte-identical across runs with the same flags; the one clock,
``elapsed_ms``, is zeroed unless ``--timing`` is passed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .applications import BroadcastInstance, design_private_message, mi_lower_bound
from .construct import (
    EEIInstance,
    construct_k,
    construct_l,
    eei_optimum,
    validated_mu,
)
from .errors import CheckFailed, EEIKitError, InvalidParameter
from .gaussmat import cov_to_json, load_cov, spectral_scale
from .oracle import (
    GridDensity,
    check_eei,
    check_epi,
    check_worst_noise,
    convolve_pair,
    gaussian_search,
    variational_first_residual,
)

CSV_HEADER = "command,n,mu,lhs,rhs,margin,tol,trials,seed,elapsed_ms"


def _parse_matrix(text: str | None, role: str) -> np.ndarray | None:
    """Accept an inline scalar or a path to a matrix JSON file; None passes."""
    if text is None:
        return None
    try:
        return np.array([[float(text)]])
    except ValueError:
        pass
    try:
        return load_cov(text)
    except OSError as exc:
        raise InvalidParameter(f"cannot read {role} matrix: {exc}") from exc


def _parse_scalar(text: str, role: str) -> float:
    mat = _parse_matrix(text, role)
    if mat.shape != (1, 1):
        raise InvalidParameter(f"{role} must be scalar for this command")
    return float(mat[0, 0])


_DENSITY_USAGE = {
    "gaussian": "gaussian density takes at most var,mean",
    "uniform": "uniform density takes lo,hi",
    "mixture": "mixture density needs w,m1,v1,m2,v2",
}


def _parse_density(args, flag: str) -> GridDensity:
    """Build the density that ``--<flag>`` names on ``--grid-points`` nodes.

    Optional parameters follow a colon: ``gaussian:<var>[,<mean>]``,
    ``uniform:<lo>,<hi>``, ``mixture:<w>,<m1>,<v1>,<m2>,<v2>`` with
    component variances.  A rejection names the flag, spec and node count.
    """
    spec, points = getattr(args, flag), args.grid_points
    name, _, rest = spec.partition(":")
    try:
        params = [float(tok) for tok in rest.split(",")] if rest else []
        if name == "gaussian" and len(params) <= 2:
            return GridDensity.gaussian(*(params or [1.0]), points=points)
        if name == "uniform" and len(params) in (0, 2):
            return GridDensity.uniform(*(params or [0.0, 1.0]), points=points)
        if name == "mixture" and len(params) == 5:
            return GridDensity.mixture(*params, points=points)
        raise InvalidParameter(_DENSITY_USAGE.get(name, f"unknown density '{name}'"))
    except (InvalidParameter, ValueError) as exc:
        raise InvalidParameter(f"--{flag} {spec} on --grid-points {points}: {exc}") from exc


# Every flag a command can read, with its argparse keywords; each command
# takes its own flags (see COMMANDS) and the common ones.
_FLAGS = {
    "mu": dict(type=float, help="entropy weight, must exceed 1"),
    **{role: dict(help=f"{role} matrix: inline scalar or JSON file path")
       for role in ("x", "w", "v", "r", "direction", "z1", "z2")},
    "density": dict(help="candidate density spec"),
    "density2": dict(default="gaussian", help="second density spec (default gaussian)"),
    "trials": dict(type=int, default=10000),
    "grid-points": dict(type=int, default=4001, dest="grid_points"),
    "seed": dict(type=int, default=42, help="seed of the random search's draws"),
    "tol": dict(type=float, help="margin tolerance override"),
    "output": dict(help="write the report here instead of stdout"),
    "format": dict(choices=("json", "csv", "text"), default="json"),
    "timing": dict(action="store_true",
                   help="report real elapsed milliseconds (breaks byte reproducibility)"),
}
_COMMON = ("tol", "output", "format", "timing")


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv with the flags of the command named first in it and the common ones."""
    # The command is the first token naming one that does not follow a flag
    # taking a value, named in full or abbreviated as argparse reads it.
    takes_value = [arg[:2] == "--" and len(arg) > 2 and "=" not in arg
                   and any(f.startswith(arg[2:]) for f in _FLAGS if f != "timing") for arg in argv]
    after_flag = [False] + takes_value
    name = next((arg for arg, after in zip(argv, after_flag)
                 if arg in COMMANDS and not after), None)
    parser = argparse.ArgumentParser(
        prog="eeikit", description="Gaussian extremal entropy constructions and numeric checks")
    parser.add_argument("command", choices=(name,) if name else tuple(COMMANDS))
    own = COMMANDS[name].flags + COMMANDS[name].options if name else ()
    for flag in own + _COMMON:
        parser.add_argument(f"--{flag}", **_FLAGS[flag])
    # argparse reads some negative numbers as flags, which ones depending on
    # the Python version (3.11's reads -1e-3 and -inf so), so a negative
    # number after a flag taking a value is attached to it: --tol -1e-3 is
    # read as --tol=-1e-3.
    joined = []
    for arg, after in zip(argv, after_flag):
        if after and arg[:1] == "-" and _is_number(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return parser.parse_args(joined)


class Outcome(NamedTuple):
    """What a runner returns: the gated numbers and the report's result."""

    n: int
    lhs: float
    rhs: float
    margin: float
    result: dict


def _certificate_outcome(cert, *inputs) -> Outcome:
    """Outcome of a split certificate.

    The gated value is its worst residual over the inputs' spectral scale.
    """
    worst = max(
        cert.zero_product_residual, max(0.0, -cert.order_residual)
    ) / spectral_scale(*inputs)
    return Outcome(cert.s_x_star.shape[0], worst, 0.0, 0.0 - worst, cert.as_dict())


def _report_outcome(report) -> Outcome:
    """Outcome of a :class:`VerificationReport`."""
    return Outcome(report.params["n"], report.lhs, report.rhs, report.margin, report.as_dict())


def _instance(args, mu) -> EEIInstance:
    return EEIInstance(
        mu=mu,
        s_w=_parse_matrix(args.w, "w"),
        r=_parse_matrix(args.r, "r"),
        s_v=_parse_matrix(args.v, "v"),
    )


# Runners take (args, mu, tol), with mu None for commands without
# --mu, and return an Outcome.  They call the library through this
# module's globals at call time, so a test can patch any of them.


def _run_construct_l(args, mu, tol):
    x, w = _parse_matrix(args.x, "x"), _parse_matrix(args.w, "w")
    return _certificate_outcome(construct_l(x, w, mu), x, w)


def _run_construct_k(args, mu, tol):
    w, v = _parse_matrix(args.w, "w"), _parse_matrix(args.v, "v")
    return _certificate_outcome(construct_k(w, v, mu), w, v)


def _run_optimum(args, mu, tol):
    instance = _instance(args, mu)
    _, value, cert = eei_optimum(instance)
    outcome = _certificate_outcome(cert, instance.s_w, instance.s_v, instance.r)
    outcome.result["objective"] = value
    return outcome


def _run_verify_eei(args, mu, tol):
    density = _parse_density(args, "density")
    report = check_eei(
        density,
        mu,
        _parse_scalar(args.w, "w"),
        _parse_scalar(args.r, "r"),
        s2_v=_parse_scalar(args.v, "v") if args.v is not None else None,
        tol=tol,
    )
    return _report_outcome(report)


def _run_verify_epi(args, mu, tol):
    d1 = _parse_density(args, "density")
    d2 = _parse_density(args, "density2")
    return _report_outcome(check_epi(d1, d2, tol=tol))


def _run_worst_noise(args, mu, tol):
    density = _parse_density(args, "density")
    report = check_worst_noise(
        density, _parse_scalar(args.w, "w"), _parse_scalar(args.v, "v"), tol=tol
    )
    return _report_outcome(report)


def _run_search(args, mu, tol):
    report = gaussian_search(_instance(args, mu), trials=args.trials, seed=args.seed, tol=tol)
    return _report_outcome(report)


def _run_broadcast_design(args, mu, tol):
    instance = BroadcastInstance(
        s_z1=_parse_matrix(args.z1, "z1"),
        s_z2=_parse_matrix(args.z2, "z2"),
        r=_parse_matrix(args.r, "r"),
        direction=_parse_matrix(args.direction, "direction"),
    )
    design = design_private_message(instance)
    tr_r = float(np.trace(instance.r))
    rel = abs(design.trace_mse_rx2 - tr_r) / tr_r
    return Outcome(instance.dim, design.trace_mse_rx2, tr_r, 0.0 - rel, design.as_dict())


def _run_lmmse_bound(args, mu, tol):
    x, r = _parse_matrix(args.x, "x"), _parse_matrix(args.r, "r")
    bound = mi_lower_bound(x, r)
    _, logdet_n = np.linalg.slogdet(r)
    _, logdet_y = np.linalg.slogdet(x + r)
    gauss = float(0.5 * (logdet_y - logdet_n))
    return Outcome(x.shape[0], bound, gauss, 0.0 - abs(bound - gauss), {
        "bound_nats": bound, "gaussian_mi_nats": gauss,
        "s_x": cov_to_json(x), "r": cov_to_json(r),
    })


def _run_variational_check(args, mu, tol):
    fx = _parse_density(args, "density")
    fv = _parse_density(args, "density2")
    residual = variational_first_residual(fx, convolve_pair(fx, fv), fv, mu)
    return Outcome(1, residual, 0.0, 0.0 - residual, {"stationarity_rms": residual})


class Command(NamedTuple):
    """One CLI command: default tolerance, required and optional flags, runner."""

    tol: float
    flags: tuple
    run: Callable
    options: tuple = ()


# Keyed by command, in the order argparse lists them; the one record of the
# flags each runner reads.  A command that takes --mu lists it first among
# its flags.  Quadrature-backed checks need a far looser default tolerance
# than exact-arithmetic certificates.
_DENSITY2 = ("density2", "grid-points")
COMMANDS = {
    "construct-l": Command(1e-8, ("mu", "x", "w"), _run_construct_l),
    "construct-k": Command(1e-8, ("mu", "w", "v"), _run_construct_k),
    "optimum": Command(1e-6, ("mu", "w", "v", "r"), _run_optimum),
    "verify-eei": Command(1e-3, ("mu", "density", "w", "r"), _run_verify_eei, ("v", "grid-points")),
    "verify-epi": Command(1e-4, ("density",), _run_verify_epi, _DENSITY2),
    "verify-worst-noise": Command(1e-4, ("density", "w", "v"), _run_worst_noise, ("grid-points",)),
    "search": Command(1e-6, ("mu", "w", "r"), _run_search, ("v", "trials", "seed")),
    "broadcast-design": Command(1e-6, ("z1", "z2", "r"), _run_broadcast_design, ("direction",)),
    "lmmse-bound": Command(1e-10, ("x", "r"), _run_lmmse_bound),
    "variational-check": Command(1e-3, ("mu", "density"), _run_variational_check, _DENSITY2),
}


def _render(fmt, config, summary, result) -> str:
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(value)
        return str(value)

    if fmt == "csv":
        fields = dict(summary, command=config["command"])
        row = ",".join(cell(fields[name]) for name in CSV_HEADER.split(","))
        return CSV_HEADER + "\n" + row + "\n"
    if fmt == "text":
        lines = [
            f"eeikit {__version__}  command={config['command']}  seed={cell(summary['seed'])}",
            f"n={summary['n']}  mu={cell(summary['mu'])}  trials={cell(summary['trials'])}",
            f"lhs={cell(summary['lhs'])}  rhs={cell(summary['rhs'])}",
            f"margin={cell(summary['margin'])}  tol={cell(summary['tol'])}",
            f"status={'PASS' if summary['passed'] else 'FAIL'}  elapsed_ms={summary['elapsed_ms']}",
        ]
        return "\n".join(lines) + "\n"
    envelope = {"version": __version__, "config": config, "summary": summary, "result": result}
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    command = COMMANDS[args.command]
    try:
        tol = args.tol if args.tol is not None else command.tol
        if not (math.isfinite(tol) and tol >= 0.0):
            raise InvalidParameter(f"--tol must be finite and non-negative, got {tol}")
        started = time.perf_counter()
        for flag in command.flags:
            if getattr(args, flag) is None:
                raise InvalidParameter(f"{args.command} requires --{flag}")
        mu = validated_mu(args.mu) if "mu" in command.flags else None
        outcome = command.run(args, mu, tol)
        elapsed_ms = int(round(1000.0 * (time.perf_counter() - started))) if args.timing else 0
        # Only a command that reads --trials or --seed states them.
        summary = dict(outcome._asdict(), mu=mu, tol=tol, trials=getattr(args, "trials", None),
                       seed=getattr(args, "seed", None), passed=outcome.margin >= -tol,
                       elapsed_ms=elapsed_ms)
        result = summary.pop("result")
        # The report embeds the command's flags, resolved, but where it is written.
        config = dict(vars(args), tol=tol)
        del config["output"]
        _emit(args, _render(args.format, config, summary, result))
    except CheckFailed as exc:
        print(f"eeikit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (EEIKitError, ValueError, OSError) as exc:
        print(f"eeikit: error: {exc}", file=sys.stderr)
        return 2
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
