import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ricdft
import ricdft.cli
from ricdft import read_signal, write_signal
from ricdft.cli import main

from helpers import GOLDEN_FOLD, GOLDEN_FORWARD, GOLDEN_INVERSE_N, GOLDEN_X


def run(*argv):
    return main([str(a) for a in argv])


def test_compress_golden(tmp_path):
    src = tmp_path / "x.csv"
    dst = tmp_path / "xhat.csv"
    write_signal(GOLDEN_X, src)
    assert run("compress", "--in", src, "--out", dst, "--n", 8, "--c", 4) == 0
    np.testing.assert_array_equal(read_signal(dst), GOLDEN_FOLD)


def test_compress_zeros_and_length_mismatch(tmp_path, capsys):
    src = tmp_path / "z.csv"
    dst = tmp_path / "zhat.csv"
    write_signal(np.zeros(8, dtype=complex), src)
    assert run("compress", "--in", src, "--out", dst, "--n", 8, "--c", 4) == 0
    assert np.array_equal(read_signal(dst), np.zeros(4, dtype=complex))
    # wrong --n for the file: config error
    assert run("compress", "--in", src, "--out", dst, "--n", 16, "--c", 4) == 2
    assert "error" in capsys.readouterr().err


def test_compress_exponent_flags(tmp_path):
    src = tmp_path / "x.csv"
    dst = tmp_path / "xhat.csv"
    write_signal(GOLDEN_X, src)
    assert run("compress", "--in", src, "--out", dst, "--q", 3, "--p", 2) == 0
    np.testing.assert_array_equal(read_signal(dst), GOLDEN_FOLD)


def test_plan_flags_must_be_consistent(tmp_path):
    src = tmp_path / "x.csv"
    write_signal(GOLDEN_X, src)
    assert run("compress", "--in", src, "--out", tmp_path / "o.csv", "--n", 8) == 2
    assert run("compress", "--in", src, "--out", tmp_path / "o.csv",
               "--n", 8, "--c", 4, "--q", 3, "--p", 2) == 2


def test_missing_input_file(tmp_path):
    assert run("compress", "--in", tmp_path / "nope.csv",
               "--out", tmp_path / "o.csv", "--n", 8, "--c", 4) == 3


def test_parse_error_exit_code(tmp_path):
    src = tmp_path / "bad.csv"
    src.write_text("1;2\n")
    assert run("compress", "--in", src, "--out", tmp_path / "o.csv", "--n", 8, "--c", 4) == 3


def test_dft_end_to_end(tmp_path):
    src = tmp_path / "x.csv"
    dst = tmp_path / "spec.csv"
    write_signal(GOLDEN_X, src)
    assert run("dft", "--in", src, "--out", dst, "--n", 8, "--c", 4, "--mode", "none") == 0
    lines = dst.read_text().strip().splitlines()
    assert lines[0] == "k,index,re,im"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[1]) for r in rows] == [0, 2, 4, 6]
    values = np.array([complex(float(r[2]), float(r[3])) for r in rows])
    np.testing.assert_allclose(values, GOLDEN_FORWARD, atol=1e-12)


def test_dft_idempotent_rerun(tmp_path):
    src = tmp_path / "x.csv"
    dst = tmp_path / "spec.json"
    write_signal(GOLDEN_X, src)
    args = ("dft", "--in", src, "--out", dst, "--n", 8, "--c", 4, "--out-format", "json")
    assert run(*args) == 0
    first = dst.read_bytes()
    assert run(*args) == 0
    assert dst.read_bytes() == first


def test_idft_end_to_end(tmp_path):
    src = tmp_path / "X.csv"
    dst = tmp_path / "x.json"
    spectrum = np.concatenate([GOLDEN_FOLD, np.zeros(4, dtype=complex)])
    write_signal(spectrum, src)
    assert run("idft", "--in", src, "--out", dst, "--n", 8, "--c", 4,
               "--mode", "recip-n", "--out-format", "json") == 0
    doc = json.loads(dst.read_text())
    assert doc["header"]["direction"] == "inverse"
    got = np.array([complex(e["re"], e["im"]) for e in doc["entries"]])
    np.testing.assert_allclose(got, GOLDEN_INVERSE_N, atol=1e-12)


def test_plan_feasible_json(capsys):
    assert run("plan", "--sample-rate", 800, "--targets", "100,200,300",
               "--max-n", 64, "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["plan"] == {"n": 16, "c": 8, "l": 2, "q": 4, "p": 3}
    assert [a["bin_index"] for a in doc["assignments"]] == [2, 4, 6]


def test_plan_infeasible_exit_2(capsys):
    assert run("plan", "--sample-rate", 1000, "--targets", "141.4213562373095",
               "--max-n", 64) == 2
    assert "infeasible" in capsys.readouterr().err


def test_plan_empty_targets_usage_error():
    assert run("plan", "--sample-rate", 800, "--targets", "", "--max-n", 64) == 2


def test_verify_golden_example(tmp_path):
    src = tmp_path / "x.csv"
    write_signal(GOLDEN_X, src)
    assert run("verify", "--in", src, "--n", 8, "--c", 4) == 0


def test_verify_random_and_perturb(capsys):
    assert run("verify", "--random", "--n", 64, "--c", 8, "--seed", 5) == 0
    assert "PASS" in capsys.readouterr().out
    assert run("verify", "--random", "--n", 64, "--c", 8, "--seed", 5,
               "--perturb", "1e-3") == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_checks_tolerance_before_any_transform(monkeypatch, capsys):
    def transform(*args, **kwargs):
        raise AssertionError("a transform ran before the tolerance was checked")

    monkeypatch.setattr(ricdft.cli, "_oracle", transform)
    monkeypatch.setattr(ricdft.cli, "_ric", transform)
    for extra in ((), ("--perturb", "1e-3")):
        assert run("verify", "--random", "--n", 64, "--c", 8, "--tol", "nan", *extra) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_zeros(tmp_path):
    src = tmp_path / "z.csv"
    write_signal(np.zeros(16, dtype=complex), src)
    assert run("verify", "--in", src, "--n", 16, "--c", 4) == 0


def test_verify_inverse_direction():
    assert run("verify", "--random", "--n", 24, "--c", 6, "--seed", 3,
               "--direction", "inverse", "--mode", "recip-n") == 0


def test_bench_cli(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run("bench", "--n-list", "16", "--c-policy", "pow2", "--trials", 3,
               "--seed", 1, "--out", out) == 0
    text = out.read_text()
    assert text.startswith("n,c,l,method")
    # identical seeds give identical count columns
    out2 = tmp_path / "report2.csv"
    assert run("bench", "--n-list", "16", "--c-policy", "pow2", "--trials", 3,
               "--seed", 1, "--out", out2) == 0
    cols = lambda path: [line.split(",")[:6] for line in path.read_text().splitlines()]
    assert cols(out) == cols(out2)


def test_bench_bad_grid(tmp_path):
    assert run("bench", "--n-list", "13", "--c-policy", "all",
               "--out", tmp_path / "r.csv") == 2
    assert run("bench", "--n-list", "16", "--trials", 0,
               "--out", tmp_path / "r.csv") == 2


def test_synth_roundtrip(tmp_path):
    out = tmp_path / "tone.csv"
    assert run("synth", "--n", 16, "--tone", "4:1.0:0", "--tone", "8:0.5:1.5",
               "--out", out) == 0
    x = read_signal(out)
    assert len(x) == 16
    # bin out of range is a usage error
    assert run("synth", "--n", 16, "--tone", "16:1.0", "--out", out) == 2
    assert run("synth", "--n", 16, "--tone", "junk", "--out", out) == 2


def test_compress_raw_format(tmp_path):
    src = tmp_path / "x.raw"
    dst = tmp_path / "xhat.raw"
    write_signal(GOLDEN_X, src, "raw-f64")
    assert run("compress", "--in", src, "--out", dst, "--n", 8, "--c", 4,
               "--in-format", "raw-f64", "--out-format", "raw-f64") == 0
    assert np.array_equal(read_signal(dst, "raw-f64"), GOLDEN_FOLD)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        run("compress")  # missing required flags
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv, code", [
    (["bench", "--n-list", "abc", "--out", "{tmp}/r.csv"], 2),
    (["plan", "--sample-rate", "800", "--targets", "100,x", "--max-n", "64"], 2),
    (["synth", "--n", "16", "--tone", "2:nan", "--out", "{tmp}/t.csv"], 2),
    (["dft", "--in", "{tmp}/x.csv", "--out", "{tmp}/s.csv", "--n", "16", "--c", "4"], 2),
    (["verify", "--random", "--n", "16", "--c", "4", "--tol", "nan"], 2),
    (["verify", "--random", "--n", "16", "--c", "4", "--tol", "-1"], 2),
    (["plan", "--sample-rate", "800", "--targets", "100", "--max-n", "64", "--tol", "nan"], 2),
], ids=["bench-bad-list", "plan-bad-target", "synth-nan-amp", "dft-wrong-length",
        "verify-nan-tol", "verify-negative-tol", "plan-nan-tol"])
def test_bad_input_exit_code_without_traceback(tmp_path, argv, code):
    write_signal(GOLDEN_X, tmp_path / "x.csv")  # 8 samples: wrong length for n = 16
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ricdft.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "ricdft"] + [a.format(tmp=tmp_path) for a in argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
