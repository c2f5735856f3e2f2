"""The benchmark's reference gates still accept right outputs and reject wrong ones.

``bench/selftest.py`` runs one real operation per gate through eeikit,
so a library change that breaks a field the benchmark reads fails here.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_bench_gate_trips():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all gates trip" in proc.stdout
