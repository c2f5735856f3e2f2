"""End-to-end tests for the command-line interface."""

import dataclasses
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import eeikit.cli
from eeikit import CheckFailed, cov_to_json, errors
from eeikit.cli import COMMANDS, CSV_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestConstructCommands:
    def test_construct_l_inline_scalar(self, capsys):
        code, blob = run_json(capsys, "construct-l", "--x", "1", "--w", "3", "--mu", "2")
        assert code == 0
        assert blob["result"]["multiplier"]["rows"] == [[0.25]]
        assert blob["result"]["s_w_tilde"]["rows"] == [[1.0]]
        assert blob["summary"]["margin"] >= -1e-8
        assert blob["summary"]["passed"] is True
        assert blob["config"]["command"] == "construct-l"

    def test_construct_l_from_files(self, capsys, tmp_path):
        x_path = tmp_path / "x.json"
        w_path = tmp_path / "w.json"
        x_path.write_text(json.dumps(cov_to_json(np.array([[1.0]]))))
        w_path.write_text(json.dumps(cov_to_json(np.array([[3.0]]))))
        code, blob = run_json(
            capsys, "construct-l", "--x", str(x_path), "--w", str(w_path), "--mu", "2"
        )
        assert code == 0
        assert blob["result"]["multiplier"]["rows"] == [[0.25]]

    def test_construct_k_inline(self, capsys):
        code, blob = run_json(capsys, "construct-k", "--w", "2", "--v", "1", "--mu", "3")
        assert code == 0
        # threshold: min(2, 1/(3-1)) = 0.5
        assert blob["result"]["s_w_tilde"]["rows"] == [[0.5]]

    def test_optimum_scalar(self, capsys):
        code, blob = run_json(
            capsys, "optimum", "--w", "1", "--v", "4", "--r", "10", "--mu", "2"
        )
        assert code == 0
        assert blob["result"]["s_x_star"]["rows"][0][0] == pytest.approx(2.0, abs=1e-6)
        assert blob["result"]["objective"] == pytest.approx(-2.661391858098673, abs=1e-8)

    def test_optimum_gate_fails_on_violated_ordering(self, capsys, monkeypatch):
        import dataclasses

        import eeikit.cli

        solve = eeikit.cli.eei_optimum

        def broken(instance):
            s_star, value, cert = solve(instance)
            return s_star, value, dataclasses.replace(cert, order_residual=-1e-3)

        monkeypatch.setattr(eeikit.cli, "eei_optimum", broken)
        code, blob = run_json(
            capsys, "optimum", "--w", "1", "--v", "4", "--r", "10", "--mu", "2"
        )
        assert code == 1
        assert blob["summary"]["passed"] is False
        # the residual is reported relative to the inputs' spectral scale, here 10
        assert blob["summary"]["margin"] == pytest.approx(-1e-4)

    def test_optimum_gate_is_relative_to_input_scale(self, capsys, tmp_path):
        # a correct optimum at scale 1e6 has absolute residuals near 1e-5,
        # far above the tolerance, and must still pass the relative gate
        rng = np.random.default_rng(77)
        paths = []
        for role, floor in (("w", 0.2), ("v", 0.2), ("r", 0.5)):
            f = rng.normal(size=(3, 3))
            path = tmp_path / f"{role}.json"
            path.write_text(json.dumps(cov_to_json(1e6 * (f @ f.T + floor * np.eye(3)))))
            paths.append(str(path))
        code, blob = run_json(
            capsys, "optimum", "--w", paths[0], "--v", paths[1], "--r", paths[2],
            "--mu", "1.8",
        )
        assert code == 0
        assert 0.0 <= blob["summary"]["lhs"] <= COMMANDS["optimum"].tol


class TestVerifyCommands:
    def test_verify_eei_uniform(self, capsys):
        code, blob = run_json(
            capsys, "verify-eei", "--density", "uniform", "--mu", "2", "--w", "1", "--r", "1"
        )
        assert code == 0
        assert blob["summary"]["margin"] > 0.0

    def test_verify_epi_defaults_second_density(self, capsys):
        code, blob = run_json(capsys, "verify-epi", "--density", "gaussian:2")
        assert code == 0
        assert abs(blob["summary"]["margin"]) <= 1e-4

    def test_verify_worst_noise(self, capsys):
        code, blob = run_json(
            capsys, "verify-worst-noise", "--density", "gaussian", "--w", "0.5", "--v", "0.5"
        )
        assert code == 0
        assert abs(blob["summary"]["margin"]) <= 1e-5

    def test_variational_check(self, capsys):
        code, blob = run_json(
            capsys,
            "variational-check",
            "--density", "gaussian",
            "--density2", "gaussian:0.5",
            "--mu", "2",
        )
        assert code == 0
        assert blob["result"]["stationarity_rms"] <= 1e-3

    def test_search_small(self, capsys):
        code, blob = run_json(
            capsys,
            "search",
            "--w", "1", "--v", "4", "--r", "10", "--mu", "2",
            "--trials", "500", "--seed", "3",
        )
        assert code == 0
        assert blob["summary"]["trials"] == 500
        assert blob["summary"]["margin"] >= -1e-6
        # only a search has a trial count and a seed, and its result carries both
        assert blob["result"]["trials"] == blob["summary"]["trials"]
        assert blob["result"]["seed"] == blob["summary"]["seed"] == 3


class TestApplicationCommands:
    def test_broadcast_design(self, capsys):
        code, blob = run_json(
            capsys,
            "broadcast-design",
            "--z1", "0.5", "--z2", "2", "--r", "0.5", "--direction", "1",
        )
        assert code == 0
        assert blob["result"]["t_star"] == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert blob["result"]["trace_mse_rx1"] == pytest.approx(2.0 / 7.0, abs=1e-8)

    def test_lmmse_bound(self, capsys):
        code, blob = run_json(capsys, "lmmse-bound", "--x", "1", "--r", "1")
        assert code == 0
        assert blob["result"]["bound_nats"] == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert blob["summary"]["margin"] >= -1e-10


def _non_finite_id(argv):
    """Command and flag of the non-finite value, with ``-inf`` for infinity."""
    bad = next(a for a in argv if a in ("nan", "inf"))
    return argv[0] + argv[argv.index(bad) - 1] + ("-inf" if bad == "inf" else "")


# One passing invocation per command, with every numeric flag it reads.
_VALID_FLAGS = {
    "construct-l": {"x": "1", "w": "3", "mu": "2"},
    "construct-k": {"w": "1", "v": "4", "mu": "2"},
    "optimum": {"w": "1", "v": "4", "r": "10", "mu": "2"},
    "verify-eei": {"density": "uniform", "w": "1", "v": "4", "r": "1", "mu": "2"},
    "verify-epi": {"density": "uniform", "density2": "gaussian:0.5"},
    "verify-worst-noise": {"density": "uniform:0,2", "w": "0.5", "v": "0.4"},
    "search": {"w": "1", "v": "4", "r": "10", "mu": "2", "trials": "50"},
    "broadcast-design": {"z1": "0.5", "z2": "2", "r": "0.5", "direction": "1"},
    "lmmse-bound": {"x": "1", "r": "1"},
    "variational-check": {"density": "gaussian", "density2": "gaussian:0.5", "mu": "2"},
}

def _broken_certificate(cert):
    return dataclasses.replace(cert, order_residual=-1.0)


def _broken_report(report):
    return dataclasses.replace(report, margin=-1.0, passed=False)


# The library call each runner gates on, and a change of its output that
# violates the gate: a certificate residual, a report margin, the broadcast
# receiver's error or the information bound.  `optimum` has its own test.
_VIOLATED = {
    "construct-l": ("construct_l", _broken_certificate),
    "construct-k": ("construct_k", _broken_certificate),
    "verify-eei": ("check_eei", _broken_report),
    "verify-epi": ("check_epi", _broken_report),
    "verify-worst-noise": ("check_worst_noise", _broken_report),
    "search": ("gaussian_search", _broken_report),
    "broadcast-design": (
        "design_private_message",
        lambda design: dataclasses.replace(design, trace_mse_rx2=1.01 * design.trace_mse_rx2),
    ),
    "lmmse-bound": ("mi_lower_bound", lambda bound: bound - 1e-3),
}

# Each parameter of each density family in turn; {} is the non-finite value.
_DENSITY_SPECS = (
    "gaussian:{}", "gaussian:1,{}", "uniform:{},1", "uniform:0,{}",
    "mixture:{},-2,1,2,1", "mixture:0.5,{},1,2,1", "mixture:0.5,-2,{},2,1",
    "mixture:0.5,-2,1,{},1", "mixture:0.5,-2,1,2,{}",
)


def _argv(command, flags):
    return [command] + [token for name, value in flags.items() for token in (f"--{name}", value)]


def _non_finite_flags():
    # each command's valid flags, --tol and the numeric options it takes:
    # a flag the command does not take exits on argparse's "unrecognized
    # arguments" and checks no number (test_every_unread_flag_is_an_input_error)
    for command, spec in COMMANDS.items():
        flags = _VALID_FLAGS[command]
        options = [name for name in ("seed", "grid-points") if name in spec.options]
        for name in [*flags, "tol", *options]:
            assert name == "tol" or name in spec.flags + spec.options, (command, name)
            specs = _DENSITY_SPECS if name.startswith("density") else ("{}",)
            yield pytest.param(command, name, specs, id=f"{command}--{name}")


def _assert_input_error(capsys, argv):
    """Exit 2, no report, no warning, and stderr that is only the error, returned.

    Stderr starts with ``eeikit: error:``; where argparse itself rejects a
    non-integer it is argparse's usage block followed by that line.  An
    exception escaping main is what the console script prints as a
    traceback; a warning is recorded here instead of printed.
    """
    rejected_by_argparse = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code, rejected_by_argparse = exc.code, True
    out, err = capsys.readouterr()
    assert code == 2, argv
    assert out == "", argv
    if rejected_by_argparse:
        assert err.startswith("usage: eeikit"), (argv, err)
        assert err.splitlines()[-1].startswith("eeikit: error:"), (argv, err)
    else:
        assert err.startswith("eeikit: error:"), (argv, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    assert not caught, (argv, [str(w.message) for w in caught])
    return err


_ERROR_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.EEIKitError)
]


class TestExitCodes:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_valid_flags_pass(self, capsys, command):
        code, _, err = run_cli(capsys, *_argv(command, _VALID_FLAGS[command]))
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("command", [*_VIOLATED, "variational-check"])
    def test_every_gate_can_fail(self, capsys, monkeypatch, command):
        if command == "variational-check":
            # a uniform source is not stationary: its residual reads 0.909
            flags = {"density": "uniform:0,2", "density2": "gaussian:0.5", "mu": "2"}
        else:
            flags = _VALID_FLAGS[command]
            name, violate = _VIOLATED[command]
            real = getattr(eeikit.cli, name)
            monkeypatch.setattr(eeikit.cli, name, lambda *a, **k: violate(real(*a, **k)))
        code, blob = run_json(capsys, *_argv(command, flags))
        assert code == 1
        assert blob["summary"]["passed"] is False
        assert blob["summary"]["margin"] < -COMMANDS[command].tol

    @pytest.mark.parametrize("command, name, specs", _non_finite_flags())
    def test_every_non_finite_number_is_an_input_error(self, capsys, command, name, specs):
        for spec in specs:
            for value in ("nan", "inf", "-inf"):
                flags = dict(_VALID_FLAGS[command], **{name: spec.format(value)})
                _assert_input_error(capsys, _argv(command, flags))

    @pytest.mark.parametrize("error", _ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_exit_code_follows_error_class(self, capsys, monkeypatch, error):
        def fail(*args):
            raise error("injected")

        monkeypatch.setattr(eeikit.cli, "mi_lower_bound", fail)
        code, out, err = run_cli(capsys, "lmmse-bound", "--x", "1", "--r", "1")
        assert code == (1 if issubclass(error, CheckFailed) else 2)
        assert out == ""
        assert "injected" in err

    def test_check_failures_are_the_five_math_errors(self):
        failed = {cls.__name__ for cls in _ERROR_CLASSES if issubclass(cls, CheckFailed)}
        assert failed == {
            "CheckFailed", "NoConvergence", "SplitInfeasible", "DominationFailed",
            "ThresholdUnreachable", "SeparationFailed",
        }

    def test_bad_mu_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "construct-l", "--x", "1", "--w", "1", "--mu", "1")
        assert code == 2
        assert out == ""
        assert "mu must exceed 1" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "search", "--mu", "2", "--r", "1")
        assert code == 2
        assert "requires --w" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--mu", "1", "--r", "1"),
            ("construct-l", "--mu", "0.5", "--x", "1"),
            ("verify-eei", "--mu", "-2", "--w", "1", "--r", "1"),
            ("variational-check", "--mu", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_mu_with_missing_flag_is_usage_error(self, capsys, argv):
        _assert_input_error(capsys, argv)

    def test_missing_matrix_file(self, capsys):
        code, _, err = run_cli(
            capsys, "construct-l", "--x", "/no/such/file.json", "--w", "1", "--mu", "2"
        )
        assert code == 2
        assert "cannot read" in err

    def test_unknown_density(self, capsys):
        code, _, err = run_cli(capsys, "verify-epi", "--density", "laplace")
        assert code == 2
        assert "unknown density" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("optimum", "--w", "nan", "--v", "4", "--r", "10", "--mu", "2"),
            ("optimum", "--w", "1", "--v", "4", "--r", "nan", "--mu", "2"),
            ("construct-l", "--x", "nan", "--w", "3", "--mu", "2"),
            ("construct-k", "--w", "2", "--v", "nan", "--mu", "3"),
            ("search", "--w", "1", "--v", "4", "--r", "nan", "--mu", "2", "--trials", "100"),
            ("verify-eei", "--density", "uniform:0,1", "--w", "1", "--r", "nan", "--mu", "2"),
            ("variational-check", "--density", "gaussian", "--mu", "nan"),
            ("construct-l", "--x", "1", "--w", "3", "--mu", "2", "--tol", "nan"),
            ("construct-l", "--x", "1", "--w", "1", "--mu", "inf"),
            ("construct-k", "--w", "2", "--v", "4", "--mu", "inf"),
            ("optimum", "--w", "1", "--v", "4", "--r", "10", "--mu", "inf"),
            ("variational-check", "--density", "gaussian", "--mu", "inf"),
        ],
        ids=_non_finite_id,
    )
    def test_non_finite_input_is_usage_error(self, capsys, argv):
        _assert_input_error(capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-epi", "--density", "uniform:0,1e-9"),
            ("verify-epi", "--density", "gaussian", "--grid-points", "100000000000000"),
            ("verify-eei", "--density", "gaussian:1e-300", "--w", "1", "--r", "1", "--mu", "2"),
            ("verify-worst-noise", "--density", "uniform:0,1e-305", "--w", "1", "--v", "1"),
        ],
        ids=["resampled-noise", "grid-points", "noise-kernel", "infinite-kernel"],
    )
    def test_oversized_grid_is_usage_error(self, capsys, argv):
        # each grid would need terabytes or more; the last one's node count,
        # 8 sigma over a 2.5e-309 step, overflows to infinity
        _assert_input_error(capsys, argv)

    def test_math_failure_exit_one(self, capsys):
        code, _, err = run_cli(
            capsys, "broadcast-design", "--z1", "0.5", "--z2", "2", "--r", "3"
        )
        assert code == 1
        assert "ThresholdUnreachable" in err

    def test_separation_failure_exit_one(self, capsys):
        # receiver 1 is noisier than receiver 2 and ends at 6/11 > 0.5
        code, out, err = run_cli(
            capsys, "broadcast-design", "--z1", "3", "--z2", "2", "--r", "0.5", "--direction", "1"
        )
        assert (code, out) == (1, "")
        assert err.startswith("eeikit: SeparationFailed:")

    @pytest.mark.parametrize("dim", [None, 1.7, True], ids=repr)
    def test_bad_declared_dim_is_usage_error(self, capsys, tmp_path, dim):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"dim": dim, "rows": [[1.0]]}))
        err = _assert_input_error(
            capsys, ("optimum", "--w", str(path), "--v", "4", "--r", "10", "--mu", "2")
        )
        assert "declared dim must be an integer" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify-eei", "--density", "uniform", "--w", "{matrix}", "--r", "1", "--mu", "2"),
             "w must be scalar"),
            (("verify-epi", "--density", "gaussian:1,0,2"), "at most var,mean"),
            (("verify-epi", "--density", "uniform:0"), "takes lo,hi"),
            (("verify-epi", "--density", "mixture:0.5,-2,1,2"), "needs w,m1,v1,m2,v2"),
            (("construct-l", "--x", "1", "--w", "3", "--mu", "2", "--output", "{missing}"),
             "No such file or directory"),
        ],
        ids=["matrix-for-scalar", "gaussian-args", "uniform-args", "mixture-args",
             "unwritable-output"],
    )
    def test_rejected_arguments_are_usage_errors(self, capsys, tmp_path, argv, message):
        matrix = tmp_path / "w.json"
        matrix.write_text(json.dumps(cov_to_json(np.eye(2))))
        missing = tmp_path / "no-such-dir" / "report.json"
        err = _assert_input_error(
            capsys, [a.format(matrix=matrix, missing=missing) for a in argv]
        )
        assert message in err

    @pytest.mark.parametrize(
        "flag, got", [(("--tol", "-1"), "-1.0"), (("--tol=-1e-300",), "-1e-300")])
    def test_negative_tol_is_usage_error(self, capsys, flag, got):
        # a negative tol would turn the gate into margin >= |tol|
        err = _assert_input_error(capsys, ("verify-epi", "--density", "uniform", *flag))
        assert f"--tol must be finite and non-negative, got {got}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("verify-epi", "--density", "uniform", "--tol", "-1e-3"),
             "--tol must be finite and non-negative, got -0.001"),
            (("verify-epi", "--density", "uniform", "--to", "-inf"),
             "--tol must be finite and non-negative, got -inf"),
            (("construct-l", "--x", "1", "--w", "3", "--mu", "-1e0"),
             "mu must exceed 1 and be finite, got -1.0"),
            (("construct-l", "--x", "-1e0", "--w", "3", "--mu", "2"),
             "s_x must be strictly positive definite"),
            (("--tol", "-1E-3", "construct-l", "--x", "1", "--w", "3", "--mu", "2"),
             "--tol must be finite and non-negative, got -0.001"),
        ],
        ids=["tol", "abbreviated-tol-inf", "mu", "matrix-scalar", "before-command"],
    )
    def test_negative_number_in_any_form_reaches_its_flag_check(self, capsys, argv, message):
        # argparse alone reads -1e-3, -1e0 and -inf as flags on some Python
        # versions and fails with "expected one argument"
        err = _assert_input_error(capsys, argv)
        assert err.startswith("eeikit: error:")
        assert message in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (("verify-epi", "--density", "uniform:a,b"),
             "--density uniform:a,b on --grid-points 4001: could not convert"),
            (("verify-epi", "--density", "gaussian", "--density2", "mixture:1,x"),
             "--density2 mixture:1,x on --grid-points 4001: could not convert"),
            (("verify-epi", "--density", "uniform", "--grid-points", "-5"),
             "--density uniform on --grid-points -5: the uniform density needs -5 grid nodes"),
            (("verify-eei", "--density", "gaussian", "--w", "1", "--r", "1", "--mu", "2",
              "--grid-points", "2"),
             "--density gaussian on --grid-points 2: the gaussian density needs 2 grid nodes"),
            (("variational-check", "--density", "triangle", "--mu", "2"),
             "--density triangle on --grid-points 4001: unknown density 'triangle'"),
        ],
        ids=["malformed-number", "malformed-second", "negative-grid", "two-node-grid", "unknown"],
    )
    def test_density_rejection_names_flag_and_spec(self, capsys, argv, named):
        err = _assert_input_error(capsys, argv)
        assert named in err
        assert "negative dimensions" not in err

    def test_negative_seed_is_usage_error(self, capsys):
        err = _assert_input_error(capsys, [*_argv("search", _VALID_FLAGS["search"]), "--seed", "-1"])
        assert "seed must be a non-negative integer, got -1" in err


# The flags each command reads besides the common ones, which every
# command takes: --tol --output --format --timing.
_OWN_FLAGS = {
    "construct-l": {"mu", "x", "w"},
    "construct-k": {"mu", "w", "v"},
    "optimum": {"mu", "w", "v", "r"},
    "verify-eei": {"mu", "density", "w", "v", "r", "grid-points"},
    "verify-epi": {"density", "density2", "grid-points"},
    "verify-worst-noise": {"density", "w", "v", "grid-points"},
    "search": {"mu", "w", "v", "r", "trials", "seed"},
    "broadcast-design": {"z1", "z2", "r", "direction"},
    "lmmse-bound": {"x", "r"},
    "variational-check": {"mu", "density", "density2", "grid-points"},
}
_COMMON_FLAGS = {"tol", "output", "format", "timing"}


class TestFlagsPerCommand:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_holds_the_command_flags_and_the_common_ones(self, capsys, command):
        _, blob = run_json(capsys, *_argv(command, _VALID_FLAGS[command]))
        own = {flag.replace("-", "_") for flag in _OWN_FLAGS[command]}
        assert set(blob["config"]) == {"command", "format", "timing", "tol"} | own

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_unread_flag_is_an_input_error(self, capsys, command):
        valid = _argv(command, _VALID_FLAGS[command])
        for flag in sorted(set().union(*_OWN_FLAGS.values()) - _OWN_FLAGS[command]):
            err = _assert_input_error(capsys, [*valid, f"--{flag}", "1"])
            assert f"unrecognized arguments: --{flag} 1" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_only_the_command_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        out, err = capsys.readouterr()
        assert (exc.value.code, err) == (0, "")
        listed = set(re.findall(r"--([\w-]+)", out))
        assert listed == _OWN_FLAGS[command] | _COMMON_FLAGS | {"help"}

    @pytest.mark.parametrize("flag", ["--output", "--out"])
    def test_a_flag_value_naming_a_command_is_not_the_command(
            self, capsys, monkeypatch, tmp_path, flag):
        # the report goes to a file named optimum; construct-l is the command
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, flag, "optimum", "construct-l", "--x", "1", "--w", "3", "--mu", "2")
        assert (code, out, err) == (0, "", "")
        blob = json.loads((tmp_path / "optimum").read_text())
        assert blob["config"]["command"] == "construct-l"

    def test_common_flags_may_precede_the_command(self, capsys):
        code, out, err = run_cli(capsys, "--format", "csv", "lmmse-bound", "--x", "1", "--r", "1")
        assert (code, err) == (0, "")
        assert out.startswith(CSV_HEADER + "\nlmmse-bound,")


class TestFormatsAndReproducibility:
    def test_csv_row(self, capsys):
        code, out, err = run_cli(
            capsys, "lmmse-bound", "--x", "1", "--r", "1", "--format", "csv"
        )
        assert code == 0 and err == ""
        header, row, tail = out.split("\n")
        assert header == CSV_HEADER
        assert tail == ""
        fields = row.split(",")
        assert len(fields) == len(CSV_HEADER.split(","))
        assert fields[0] == "lmmse-bound"
        assert fields[-1] == "0"  # elapsed_ms zeroed without --timing

    def test_text_format_status_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct-l", "--x", "1", "--w", "3", "--mu", "2", "--format", "text"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert lines[0].startswith("eeikit ")
        assert "status=PASS" in lines[-1]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "construct-l", "--x", "1", "--w", "3", "--mu", "2", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        blob = json.loads(target.read_text())
        assert blob["result"]["multiplier"]["rows"] == [[0.25]]

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_readme_search_report_bytes_are_pinned(self, capsys, fmt):
        # the README's search example prints tests/data/readme_search.<fmt>
        # byte for byte, so no change to the search's draws, band cap or
        # scores can pass unseen
        argv = ["search", "--w", "1", "--v", "4", "--r", "10", "--mu", "2",
                "--trials", "10000", "--seed", "7"]
        assert argv in _readme_examples()
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (Path(__file__).parent / "data" / f"readme_search.{fmt}").read_text()

    def test_byte_identical_reports(self, capsys):
        argv = ("search", "--w", "1", "--v", "4", "--r", "10", "--mu", "2",
                "--trials", "400", "--seed", "9")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-eei", "--density", "uniform", "--mu", "2", "--w", "1", "--r", "1"),
            ("verify-eei", "--density", "mixture:0.5,-2,1,2,1", "--mu", "2", "--w", "1",
             "--v", "4", "--r", "10"),
            ("verify-epi", "--density", "uniform", "--density2", "gaussian:0.5"),
            ("verify-worst-noise", "--density", "uniform:0,2", "--w", "0.7", "--v", "0.4"),
        ],
        ids=["eei", "eei-two-noise", "epi", "worst-noise"],
    )
    def test_verify_reports_carry_quadrature_budget(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second
        result = json.loads(first)["result"]
        assert math.isfinite(result["quad_error"]) and result["quad_error"] >= 0.0
        assert math.isfinite(result["step"]) and result["step"] > 0.0
        # a quadrature check draws nothing, so it has no trial count and no seed
        assert "trials" not in result and "seed" not in result

    @pytest.mark.parametrize("command", [name for name in COMMANDS if name != "search"])
    def test_only_search_states_a_seed_and_trials(self, capsys, command):
        # the nine other commands draw nothing: null in JSON, empty cells in csv
        argv = _argv(command, _VALID_FLAGS[command])
        _, blob = run_json(capsys, *argv)
        assert (blob["summary"]["seed"], blob["summary"]["trials"]) == (None, None)
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        fields = dict(zip(CSV_HEADER.split(","), out.split("\n")[1].split(",")))
        assert (fields["seed"], fields["trials"]) == ("", "")

    def test_search_states_its_default_seed_and_trials(self, capsys):
        # test_search_small covers an explicit --seed
        argv = _argv("search", _VALID_FLAGS["search"])
        _, blob = run_json(capsys, *argv)
        assert (blob["summary"]["seed"], blob["summary"]["trials"]) == (42, 50)
        assert blob["config"]["seed"] == blob["result"]["seed"] == 42
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert out.split("\n")[1].endswith(",50,42,0")

    def test_default_tol_is_per_command(self, capsys):
        _, blob = run_json(capsys, "verify-epi", "--density", "uniform")
        assert blob["config"]["tol"] == COMMANDS["verify-epi"].tol

    def test_timing_flag_reports_elapsed(self, capsys):
        _, blob = run_json(
            capsys, "construct-l", "--x", "1", "--w", "3", "--mu", "2", "--timing"
        )
        assert "elapsed_ms" in blob["summary"]
        assert blob["config"]["timing"] is True


def _readme_examples():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().splitlines()
    return [line.split()[1:] for line in lines if line.startswith("eeikit ")]


def test_readme_command_table_lists_each_command_flags():
    # Each row: `name` | required flags | optional flags, with defaults.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([\w-]+)` \|([^|]*)\|([^|]*)\|$", readme, re.MULTILINE)
    table = {name: (tuple(re.findall(r"--([\w-]+)", required)),
                    tuple(re.findall(r"--([\w-]+)", optional)))
             for name, required, optional in rows}
    assert len(rows) == len(table)
    assert table == {name: (command.flags, command.options) for name, command in COMMANDS.items()}


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_example_margin_is_never_negative_zero(capsys, argv):
    # An exact result's margin is 0.0 - 0.0 = 0.0, never the -0.0 that
    # negating a zero error prints.
    code, blob = run_json(capsys, *argv, "--format", "json")
    margin = blob["summary"]["margin"]
    assert code == 0
    assert margin != 0.0 or math.copysign(1.0, margin) > 0


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "eeikit.cli", "lmmse-bound", "--x", "1", "--r", "1",
         "--format", "csv"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(CSV_HEADER)


def test_matrix_optimum_report_is_byte_identical_across_processes(tmp_path):
    # An n = 3 solve runs the whole barrier path; two interpreters must
    # print the same report, byte for byte.
    rng = np.random.default_rng(2012)
    argv = [sys.executable, "-m", "eeikit.cli", "optimum", "--mu", "1.8"]
    for role, floor in (("w", 0.2), ("v", 0.2), ("r", 0.5)):
        f = rng.normal(size=(3, 3))
        path = tmp_path / f"{role}.json"
        path.write_text(json.dumps(cov_to_json(f @ f.T + floor * np.eye(3))))
        argv += [f"--{role}", str(path)]
    first, again = (subprocess.run(argv, capture_output=True, timeout=120) for _ in range(2))
    assert (first.returncode, again.returncode) == (0, 0)
    assert len(json.loads(first.stdout)["result"]["s_x_star"]["rows"]) == 3
    assert first.stdout == again.stdout
