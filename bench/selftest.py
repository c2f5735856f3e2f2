"""Show that every reference gate of the benchmark can fail.

    python3 bench/selftest.py

Each case runs one real operation, checks that its untouched output
passes its gate, then alters the output and checks that the gate
rejects it:

* a small feasible step away from the band optimum trips the KKT gate;
* each closed form, moved by a relative 1e-5, trips its gate;
* one altered byte of a CLI report trips the byte-identity gate.

Exits 1 if any gate rejects a right output or passes a wrong one.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys

from run import ROOT, _load_eeikit

_load_eeikit()

import numpy as np  # noqa: E402

import workloads as wls  # noqa: E402
from tracing import Tracer  # noqa: E402

OFF = 1e-5
SEED = 4242


def bump(x: float) -> float:
    """Move a value by a relative 1e-5 (absolute below magnitude one)."""
    return x + OFF * max(1.0, abs(x))


def _report(field):
    return lambda rep: dataclasses.replace(rep, **{field: bump(getattr(rep, field))})


def _w_tilde(out):
    """Scale the reduced noise of a split certificate."""
    cert = out[0] if isinstance(out, tuple) else out
    bumped = dataclasses.replace(cert, s_w_tilde=cert.s_w_tilde * (1.0 + OFF))
    return (bumped, *out[1:]) if isinstance(out, tuple) else bumped


def _cli_number(fmt, path):
    """Move one number of a CLI report, leaving the rest as printed."""

    def alter(proc):
        text = proc.stdout.decode()
        if fmt == "json":
            doc = json.loads(text)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = bump(node[path[-1]])
            text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        elif fmt == "csv":
            header, row = text.strip().split("\n")
            cells = row.split(",")
            i = header.split(",").index(path[0])
            cells[i] = repr(bump(float(cells[i])))
            text = header + "\n" + ",".join(cells) + "\n"
        else:
            text = re.sub(rf"\b{path[0]}=(\S+)",
                          lambda m: f"{path[0]}={bump(float(m.group(1)))!r}", text)
        return subprocess.CompletedProcess(proc.args, 0, text.encode(), proc.stderr)

    return alter


def _flip_byte(proc):
    out = bytearray(proc.stdout)
    out[len(out) // 2] ^= 0x01
    return subprocess.CompletedProcess(proc.args, 0, bytes(out), proc.stderr)


def _first(pool, kind):
    return next(op for op in pool if op.kind == kind)


def cases():
    """(label, op, alteration, fresh_op) for every gate.

    ``fresh_op`` builds an op whose byte-identity reference is still
    empty, so a CLI closed form is judged on the altered report alone.
    """
    rng = np.random.default_rng([SEED, 9])
    for n in (4, 8):
        mu, w, v, r = wls._criterion4_instance(rng, n)
        step = lambda out, r=r: (out[0] + 1e-3 * (0.5 * r - out[0]), *out[1:])  # noqa: E731
        yield f"KKT, n={n}: step 1e-3 towards R/2", wls._band_op(mu, w, v, r), step, None
    search = wls.build_search(SEED, ROOT)
    yield "search n=1 rhs closed form", _first(search, "search.n1"), _report("rhs"), None
    certify = wls.build_certify(SEED, ROOT)
    for kind, alter in (
        ("certify.construct_l.n1", _w_tilde),
        ("certify.construct_k.n1", _w_tilde),
        ("certify.construct_l.n3", _w_tilde),
        ("certify.construct_k.n5", _w_tilde),
        ("certify.dominating_gaussian", lambda out: (out[0], _w_tilde(out[1]))),
        ("certify.check_eei.single.p4001", _report("rhs")),
        ("certify.check_eei.two.p4001", _report("rhs")),
        ("certify.check_eei.single.equality.p4001", _report("rhs")),
        ("certify.check_epi.p4001", _report("rhs")),
        ("certify.check_epi.equality.p8001", _report("rhs")),
        ("certify.check_worst_noise.p4001", _report("rhs")),
        ("certify.mi_lower_bound", bump),
        ("certify.design_private_message", lambda d: dataclasses.replace(d, t_star=bump(d.t_star))),
    ):
        yield f"{kind} closed form", _first(certify, kind), alter, None
    cli = wls.build_cli(SEED, ROOT)
    for kind, alter in (
        ("cli.construct-l", _cli_number("json", ("result", "s_w_tilde", "rows", 0, 0))),
        ("cli.lmmse-bound", _cli_number("csv", ("lhs",))),
        ("cli.search", _cli_number("text", ("rhs",))),
    ):
        yield (f"{kind} closed form", _first(cli, kind), alter,
               lambda kind=kind: _first(wls.build_cli(SEED, ROOT), kind))
    yield "cli.verify-epi byte identity", _first(cli, "cli.verify-epi"), _flip_byte, None


def main() -> int:
    tr = Tracer(False)
    bad = 0
    for label, op, alter, fresh in cases():
        out = op.run(tr)
        right = op.gate(out)
        judge = fresh() if fresh else op
        wrong = judge.gate(alter(out))
        ok = right.passed and not wrong.passed
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: untouched "
              f"{'passes' if right.passed else 'REJECTED ' + right.detail}; altered "
              f"{'PASSES' if wrong.passed else 'trips (' + wrong.detail + ')'}")
    print(f"{'all gates trip' if not bad else f'{bad} gate(s) did not behave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
