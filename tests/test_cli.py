from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import package_env
from selftesting.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_verify_roundtrip(capsys, tmp_path):
    tables = tmp_path / "t.json"
    code, _, _ = run_cli(capsys, "generate", "--coeffs", "0.8,0.6", "-o", str(tables))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(tables), "--coeffs", "0.8,0.6")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["block_residual"] < 1e-12


def test_verify_fails_on_corruption(capsys, tmp_path):
    tables = tmp_path / "t.json"
    run_cli(capsys, "generate", "--coeffs", "0.8,0.6", "-o", str(tables))
    doc = json.loads(tables.read_text())
    doc["tables"]["0,0"][0][0] += 1e-3
    tables.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", str(tables), "--coeffs", "0.8,0.6")
    assert code == 1
    rep = json.loads(out)
    assert rep["pass"] is False
    assert abs(rep["block_residual"] - 1e-3) < 1e-4


def test_verify_rejects_nonfinite_tables(capsys, tmp_path):
    tables = tmp_path / "t.json"
    run_cli(capsys, "generate", "--coeffs", "0.8,0.6", "-o", str(tables))
    doc = json.loads(tables.read_text())
    doc["tables"]["2,3"][1][1] = float("nan")
    tables.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(tables), "--coeffs", "0.8,0.6")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "non-finite" in err


def test_invalid_realization_is_input_error(capsys, tmp_path):
    real = tmp_path / "r.json"
    run_cli(capsys, "ideal", "--coeffs", "0.8,0.6", "-o", str(real))
    overlapping = json.loads(real.read_text())
    overlapping["alice"][0][1] = overlapping["alice"][0][0]
    nan_state = json.loads(real.read_text())
    nan_state["state"][0] = [float("nan"), 0.0]
    for doc, why in ((overlapping, "overlap"), (nan_state, "non-finite")):
        real.write_text(json.dumps(doc))
        for argv in (["extract", str(real), "--coeffs", "0.8,0.6"], ["sample", str(real)]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: {real}:") and why in err


def test_exit_2_on_bad_input(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "missing.json"),
                           "--coeffs", "0.8,0.6")
    assert code == 2
    assert "error:" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run_cli(capsys, "verify", str(bad), "--coeffs", "0.8,0.6")
    assert code == 2

    code, _, err = run_cli(capsys, "generate", "--coeffs", "0.8,0.6", "-d", "3")
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "chsh", "extract", "sample"])
def test_unreadable_input_is_input_error(capsys, tmp_path, monkeypatch, command):
    # a directory, a file that is not UTF-8 and an unreadable file each give
    # one error line and exit 2, not a traceback
    coeffs = [] if command == "sample" else ["--coeffs", "0.8,0.6"]
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"d": 2, "note": "caf\u00e9"}'.encode("latin-1"))
    for path, why in ((tmp_path, "Is a directory"), (latin1, "not UTF-8 text")):
        code, out, err = run_cli(capsys, command, str(path), *coeffs)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and why in err and err.count("\n") == 1

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    code, out, err = run_cli(capsys, command, str(latin1), *coeffs)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 13] Permission denied: '{latin1}'\n"


def test_unwritable_output_is_input_error(capsys, tmp_path, monkeypatch):
    code, out, err = run_cli(capsys, "generate", "--coeffs", "0.8,0.6", "-o", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "write_text", refuse)
    target = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "ideal", "--coeffs", "0.8,0.6", "-o", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 13] Permission denied: '{target}'\n"
    assert not target.exists()


def test_exit_1_on_domain_error(capsys):
    # zero coefficient is structurally invalid, not a parse problem
    code, _, err = run_cli(capsys, "generate", "--coeffs", "1.0,0.0")
    assert code == 1
    assert "error:" in err


def test_chsh_scores(capsys, tmp_path):
    tables = tmp_path / "t.json"
    run_cli(capsys, "generate", "--coeffs", "0.8,0.4,0.4,0.2", "-o", str(tables))
    code, out, _ = run_cli(capsys, "chsh", str(tables), "--coeffs", "0.8,0.4,0.4,0.2",
                           "--tol", "1e-9")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["blocks"]) == 4
    betas = {(b["primed"], b["m"]): b["beta"] for b in doc["blocks"]}
    assert abs(betas[(False, 0)] - 20 / np.sqrt(41) * 0.8) < 1e-12
    assert abs(betas[(True, 0)] - 2 * np.sqrt(2) * 0.32) < 1e-12


def test_chsh_tol_flags_wrong_claim(capsys, tmp_path):
    tables = tmp_path / "t.json"
    run_cli(capsys, "generate", "--coeffs", "0.8,0.6", "-o", str(tables))
    code, _, _ = run_cli(capsys, "chsh", str(tables), "--coeffs", "0.6,0.8",
                         "--tol", "1e-6")
    assert code == 1


@pytest.mark.parametrize(
    "command, option",
    [("verify", "--tol"), ("chsh", "--tol"), ("extract", "--tol"),
     ("extract", "--fidelity-threshold")],
)
def test_nan_option_is_usage_error(capsys, tmp_path, command, option):
    # every comparison with NaN is False, so `chsh --tol nan` passed any table
    path = tmp_path / "in.json"
    source = "ideal" if command == "extract" else "generate"
    run_cli(capsys, source, "--coeffs", "0.8,0.6", "-o", str(path))
    with pytest.raises(SystemExit) as exc:
        main([command, str(path), "--coeffs", "0.6,0.8", option, "nan"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: 'nan' is not a number" in captured.err


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        ("sample", "--shots", "0", "argument --shots: '0' is below 1"),
        ("sample", "--seed", "-1", "argument --seed: '-1' is below 0"),
        ("embed", "--seed", "-1", "argument --seed: '-1' is below 0"),
        ("embed", "--extra-a", "-1", "argument --extra-a: '-1' is below 0"),
        ("embed", "--extra-a", "40", "error: at most 32 extra dimensions per side"),
    ],
    ids=["sample-shots-0", "sample-seed-neg", "embed-seed-neg", "embed-extra-neg",
         "embed-extra-40"],
)
def test_bad_integer_option_is_usage_error(capsys, tmp_path, command, option, value, message):
    # a bad count, seed or padding is a usage error (exit 2), not a traceback
    real = tmp_path / "r.json"
    run_cli(capsys, "ideal", "--coeffs", "0.8,0.6", "-o", str(real))
    try:
        code = main([command, str(real), option, value])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_ideal_extract_pipeline(capsys, tmp_path):
    real = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "ideal", "--coeffs", "0.6,0.8", "-o", str(real))
    assert code == 0
    code, out, _ = run_cli(capsys, "extract", str(real), "--coeffs", "0.6,0.8")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["fidelity"] > 1 - 1e-9
    assert max(doc["projector_residuals"]) < 1e-9


def test_extract_reports_ladder_rounding(capsys, tmp_path):
    real = tmp_path / "r.json"
    run_cli(capsys, "ideal", "--coeffs", "0.8,0.48,0.36", "-o", str(real))
    code, out, _ = run_cli(capsys, "extract", str(real), "--coeffs", "0.8,0.48,0.36")
    assert code == 0
    doc = json.loads(out)
    assert doc["ladder_rounding"] == 0.0
    assert "pb_orthogonality_sum" not in doc


def test_chsh_and_extract_key_order(capsys, tmp_path):
    # the documents are the report dataclasses in field order, so a field
    # added or moved there shows up here
    tables = tmp_path / "t.json"
    real = tmp_path / "r.json"
    run_cli(capsys, "generate", "--coeffs", "0.8,0.6", "-o", str(tables))
    run_cli(capsys, "ideal", "--coeffs", "0.8,0.6", "-o", str(real))
    _, out, _ = run_cli(capsys, "chsh", str(tables), "--coeffs", "0.8,0.6")
    doc = json.loads(out)
    assert list(doc) == ["blocks"]
    for block in doc["blocks"]:
        assert list(block) == [
            "m", "primed", "pair", "mass", "alpha", "beta", "target", "residual"
        ]
    _, out, _ = run_cli(capsys, "extract", str(real), "--coeffs", "0.8,0.6")
    doc = json.loads(out)
    assert list(doc) == [
        "projector_residuals",
        "chain_residuals",
        "chain_adjoint_residuals",
        "ladder_rounding",
        "output_norm",
        "fidelity",
        "product_overlap",
        "measurement_residuals",
        "pass",
    ]
    for row in doc["measurement_residuals"]:
        assert list(row) == ["side", "setting", "m", "primed", "residual"]


def test_extract_fails_on_wrong_claim(capsys, tmp_path):
    real = tmp_path / "r.json"
    run_cli(capsys, "ideal", "--coeffs", "0.8,0.6", "-o", str(real))
    code, out, _ = run_cli(capsys, "extract", str(real), "--coeffs", "0.6,0.8")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_embed_then_extract(capsys, tmp_path):
    real = tmp_path / "r.json"
    emb = tmp_path / "e.json"
    run_cli(capsys, "ideal", "--coeffs", "0.8,0.4,0.4,0.2", "-o", str(real))
    code, _, _ = run_cli(capsys, "embed", str(real), "--extra-a", "2",
                         "--extra-b", "1", "--seed", "3", "-o", str(emb))
    assert code == 0
    doc = json.loads(emb.read_text())
    assert doc["dimA"] == 6 and doc["dimB"] == 5
    code, out, _ = run_cli(capsys, "extract", str(emb), "--coeffs", "0.8,0.4,0.4,0.2")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_embed_deterministic(capsys, tmp_path):
    real = tmp_path / "r.json"
    run_cli(capsys, "ideal", "--coeffs", "0.8,0.6", "-o", str(real))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run_cli(capsys, "embed", str(real), "--extra-a", "1", "--seed", "4", "-o", str(a))
    run_cli(capsys, "embed", str(real), "--extra-a", "1", "--seed", "4", "-o", str(b))
    assert a.read_text() == b.read_text()


def test_sample_outputs_tables_and_summary(capsys, tmp_path):
    real = tmp_path / "r.json"
    sampled = tmp_path / "s.json"
    run_cli(capsys, "ideal", "--coeffs", "0.8,0.6", "-o", str(real))
    code, _, err = run_cli(capsys, "sample", str(real), "--shots", "2000",
                           "--seed", "12", "-o", str(sampled))
    assert code == 0
    summary = json.loads(err)
    assert summary["shots_per_pair"] == 2000
    assert summary["seed"] == 12
    assert summary["stderr_max"] > 0
    doc = json.loads(sampled.read_text())
    assert len(doc["tables"]) == 12
    # sampled tables should verify only at a loose statistical tolerance
    code, _, _ = run_cli(capsys, "verify", str(sampled), "--coeffs", "0.8,0.6",
                         "--tol", "0.05")
    assert code == 0


def test_coeffs_file_input(capsys, tmp_path):
    cfile = tmp_path / "c.json"
    cfile.write_text('{"d": 2, "c": [0.8, 0.6]}')
    code, out, _ = run_cli(capsys, "generate", "--coeffs-file", str(cfile))
    assert code == 0
    assert json.loads(out)["d"] == 2


def test_d_checks_coeffs_file(capsys, tmp_path):
    # the -d cross-check skipped files, so this exited 0 with d = 2 tables
    cfile = tmp_path / "c.json"
    cfile.write_text('{"d": 2, "c": [0.8, 0.6]}')
    code, out, err = run_cli(capsys, "generate", "-d", "3", "--coeffs-file", str(cfile))
    assert code == 2
    assert out == ""
    assert err == "error: -d 3 does not match 2 coefficients\n"


def test_coeffs_and_coeffs_file_conflict(capsys, tmp_path):
    # --coeffs was dropped in silence when --coeffs-file was given too
    cfile = tmp_path / "c.json"
    cfile.write_text('{"d": 2, "c": [0.8, 0.6]}')
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--coeffs", "0.6,0.8", "--coeffs-file", str(cfile)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --coeffs-file: not allowed with argument --coeffs" in captured.err


def _module(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m selftesting`` on the package this test imported."""
    return subprocess.run(
        [sys.executable, "-m", "selftesting", *argv],
        capture_output=True,
        text=True,
        env=package_env(),
    )


def test_module_entry_point():
    proc = _module("generate", "--coeffs", "0.8,0.6")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == 2


@pytest.mark.parametrize(
    "command, keys, value",
    [
        ("verify", ("tables", "0,0", 0, 0), "abc"),
        ("verify", ("tables", "0,0", 1), [0.5]),
        ("extract", ("state", 0), ["abc", 0.0]),
        ("extract", ("alice", 0, 0, 0, 0), ["abc", 0.0]),
    ],
    ids=["table-entry", "ragged-table-row", "state-entry", "projector-entry"],
)
def test_malformed_numbers_are_input_errors(capsys, tmp_path, command, keys, value):
    # a non-numeric or ragged matrix is unusable input (exit 2), not a crash
    path = tmp_path / "in.json"
    source = "generate" if command == "verify" else "ideal"
    run_cli(capsys, source, "--coeffs", "0.8,0.6", "-o", str(path))
    doc = json.loads(path.read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path.write_text(json.dumps(doc))
    proc = _module(command, str(path), "--coeffs", "0.8,0.6")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {path}:")
    assert "Traceback" not in proc.stderr


def test_non_ascii_digit_table_key_is_input_error(tmp_path):
    # '²' passes str.isdigit, and int() then raised a bare ValueError
    tables = tmp_path / "bad.json"
    tables.write_text('{"d": 2, "tables": {"\u00b2,0": [[0.5, 0.0], [0.0, 0.5]]}}')
    cfile = tmp_path / "c.json"
    cfile.write_text('{"d": 2, "c": [0.8, 0.6]}')
    proc = _module("verify", str(tables), "--coeffs-file", str(cfile))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {tables}:")
    assert "Traceback" not in proc.stderr


def test_missing_coefficients_is_usage_error(capsys, tmp_path):
    tables = tmp_path / "t.json"
    run_cli(capsys, "generate", "--coeffs", "0.8,0.6", "-o", str(tables))
    code, _, err = run_cli(capsys, "verify", str(tables))
    assert code == 2
    assert "coefficients required" in err


@pytest.mark.parametrize("command", ["verify", "chsh", "extract"])
@pytest.mark.parametrize(
    "file_coeffs, claim_coeffs", [("0.8,0.6", "0.8,0.48,0.36"), ("0.8,0.48,0.36", "0.8,0.6")]
)
def test_file_d_differing_from_coefficients_is_error(
    capsys, tmp_path, command, file_coeffs, claim_coeffs
):
    # each of these printed a traceback, or for chsh on a larger table
    # file, exited 0 with scores of the wrong blocks
    path = tmp_path / "in.json"
    source = "ideal" if command == "extract" else "generate"
    run_cli(capsys, source, "--coeffs", file_coeffs, "-o", str(path))
    code, out, err = run_cli(capsys, command, str(path), "--coeffs", claim_coeffs)
    file_d, claim_d = len(file_coeffs.split(",")), len(claim_coeffs.split(","))
    have = f"tables have d = {file_d}"
    if command == "extract":
        have = f"realization has {file_d} outcomes"
    assert code == 1
    assert out == ""
    assert err == f"error: {have}, but the coefficients give d = {claim_d}\n"


@pytest.mark.parametrize(
    "command, name, text, where",
    [
        # exited 0 with the booleans read as 1.0 and 0.0
        ("verify", "tables", '{"d": 2, "tables": {"0,0": [[true, false], [false, false]]}}',
         "['tables']['0,0'][0][0]"),
        # exited 1 with a coefficient range error
        ("generate", "coeffs", '{"d": 2, "c": [true, 0.5]}', "['c'][0]"),
        # exited 1 with a dimension error
        ("generate", "coeffs", '{"d": true, "c": [0.6]}', "['d']"),
    ],
    ids=["table-entries", "coefficient", "coefficients-d"],
)
def test_boolean_numbers_are_input_errors(capsys, tmp_path, command, name, text, where):
    path = tmp_path / f"{name}.json"
    path.write_text(text)
    if name == "coeffs":
        argv = [command, "--coeffs-file", str(path)]
    else:
        argv = [command, str(path), "--coeffs", "0.8,0.6"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {where} is true/false where a number is expected\n"


@pytest.mark.parametrize(
    "command, keys, value, where",
    [
        # exited 0 with the string read as 0.5
        ("verify", ("tables", "0,0", 0, 1), "0.0", "table '0,0'"),
        # exited 2 naming non-finite entries
        ("verify", ("tables", "0,0", 0, 1), None, "table '0,0'"),
        # exited 0 with the string read as 0.8
        ("extract", ("state", 0, 0), "0.8", "'state'"),
    ],
    ids=["table-string", "table-null", "state-string"],
)
def test_strings_and_nulls_are_input_errors(capsys, tmp_path, command, keys, value, where):
    path = tmp_path / "in.json"
    source = "generate" if command == "verify" else "ideal"
    run_cli(capsys, source, "--coeffs", "0.8,0.6", "-o", str(path))
    doc = json.loads(path.read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, str(path), "--coeffs", "0.8,0.6")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}: {where}: entries must be numbers "
        "(found a string, a null or an integer beyond 64 bits)\n"
    )
