import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ricdft
import ricdft.cli
from ricdft import make_plan, read_signal, verify_against_oracle, write_signal
from ricdft.cli import main

from helpers import GOLDEN_FOLD, GOLDEN_FORWARD, GOLDEN_INVERSE_N, GOLDEN_X

# 1e308, -1e308, 0, 0: at n = 4, c = 2 the column sums are finite, their transform is not
OVERFLOW_CSV = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "overflow.csv")
# 1e308, 0, 1e308, 0, -1e308, 0, -1e308, 0: at n = 8, c = 2 the pipeline's values are 0, the oracle's overflow
ORACLE_OVERFLOW_CSV = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "oracle_overflow.csv")


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


def test_plan_flags_must_be_consistent(tmp_path):
    # plans are --n and --c only: a missing --c, or a removed flag, is a usage error
    src, dst = tmp_path / "x.csv", tmp_path / "o.csv"
    write_signal(GOLDEN_X, src)
    for argv in (("compress", "--in", src, "--out", dst, "--n", 8),
                 ("compress", "--in", src, "--out", dst, "--n", 8, "--c", 4, "--q", 3),
                 ("compress", "--in", src, "--out", dst, "--n", 8, "--c", 4, "--p", 2),
                 ("verify", "--in", src, "--n", 8, "--c", 4, "--perturb", "1e-3")):
        with pytest.raises(SystemExit) as excinfo:
            run(*argv)
        assert excinfo.value.code == 2


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


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    write_signal(GOLDEN_X, tmp_path / "x.csv")
    write_signal(np.concatenate([GOLDEN_FOLD, np.zeros(4, dtype=complex)]), tmp_path / "X.csv")
    plan = ["plan", "--sample-rate", "600", "--targets", "100,200", "--max-n", "64"]
    calls = [  # default modes none then recip-n; --any-n then powers of two only
        (["dft", "--in", "{tmp}/x.csv", "--out", "{tmp}/f.json", "--n", "8", "--c", "4",
          "--out-format", "json"], 0),
        (["idft", "--in", "{tmp}/X.csv", "--out", "{tmp}/i.json", "--n", "8", "--c", "4",
          "--out-format", "json"], 0),
        (plan + ["--any-n"], 0),  # c = 6: 100 Hz and 200 Hz are retained k = 1 and 2
        (plan, 2),  # no power-of-two c is a multiple of 6
    ]
    for argv, code in calls:
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv) == code
        fresh = ricdft.cli.build_parser.__wrapped__().parse_args(argv)
        assert vars(ricdft.cli.build_parser().parse_args(argv)) == vars(fresh)
    assert ricdft.cli.build_parser() is ricdft.cli.build_parser()
    for name, mode, want in (("f.json", "none", GOLDEN_FORWARD), ("i.json", "recip-n", GOLDEN_INVERSE_N)):
        doc = json.loads((tmp_path / name).read_text())
        assert doc["header"]["mode"] == mode
        got = np.array([complex(e["re"], e["im"]) for e in doc["entries"]])
        np.testing.assert_allclose(got, want, atol=1e-12)


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


PLAN_ARGV = ("plan", "--sample-rate", 1000, "--targets", "141.4213562373095,250",
             "--max-n", 64, "--tol", 0.2)

PLAN_TEXT = """\
plan: n=16 c=8 l=2
sample_rate=1000.0 bin_width=62.5
target_hz,k,bin_index,achieved_hz,rel_error
141.4213562373095,1,2,125.0,0.11611652351681563
250.0,2,4,250.0,0.0
"""

PLAN_JSON = """\
{
  "plan": {
    "n": 16,
    "c": 8,
    "l": 2,
    "q": 4,
    "p": 3
  },
  "sample_rate": 1000.0,
  "bin_width": 62.5,
  "assignments": [
    {
      "target": 141.4213562373095,
      "k": 1,
      "bin_index": 2,
      "achieved": 125.0,
      "rel_error": 0.11611652351681563
    },
    {
      "target": 250.0,
      "k": 2,
      "bin_index": 4,
      "achieved": 250.0,
      "rel_error": 0.0
    }
  ]
}
"""

DFT_CSV = "k,index,re,im\n0,0,6.0,4.0\n1,2,-10.0,8.0\n2,4,6.0,-20.0\n3,6,-18.0,-8.0\n"

IDFT_JSON = """\
{
  "header": {
    "n": 8,
    "c": 4,
    "l": 2,
    "mode": "recip-n",
    "direction": "inverse"
  },
  "entries": [
    {
      "k": 0,
      "index": 0,
      "re": 0.75,
      "im": 0.5
    },
    {
      "k": 1,
      "index": 2,
      "re": -2.25,
      "im": -1.0
    },
    {
      "k": 2,
      "index": 4,
      "re": 0.75,
      "im": -2.5
    },
    {
      "k": 3,
      "index": 6,
      "re": -1.25,
      "im": 1.0
    }
  ]
}
"""


def test_rendered_bytes(tmp_path, capsys):
    # byte for byte: the plan's text and json, a csv and a json spectrum
    assert run(*PLAN_ARGV) == 0
    assert capsys.readouterr().out == PLAN_TEXT
    assert run(*PLAN_ARGV, "--json") == 0
    assert capsys.readouterr().out == PLAN_JSON
    src = tmp_path / "x.csv"
    write_signal(GOLDEN_X, src)
    for name, fmt, direction, want in (("dft", "csv", "forward", DFT_CSV),
                                       ("idft", "json", "inverse", IDFT_JSON)):
        out = tmp_path / f"{name}.{fmt}"
        assert run(name, "--in", src, "--out", out, "--n", 8, "--c", 4, "--out-format", fmt) == 0
        assert capsys.readouterr().out == (f"{direction} transform at indices 0,2,..,6"
                                           " (complex_adds=12, complex_mults=4)\n")
        assert out.read_bytes() == want.encode()


def test_compress_message(tmp_path, capsys):
    # the fold's c*(l-1) additions, at an even and an odd depth l
    for n, c, adds in ((8, 4, 4), (24, 8, 16)):
        src = tmp_path / f"x{n}.csv"
        write_signal(np.arange(n, dtype=complex), src)
        assert run("compress", "--in", src, "--out", tmp_path / "o.csv", "--n", n, "--c", c) == 0
        assert capsys.readouterr().out == f"folded {n} -> {c} samples (complex_adds={adds})\n"


def test_plan_empty_targets_usage_error():
    assert run("plan", "--sample-rate", 800, "--targets", "", "--max-n", 64) == 2


def test_verify_golden_example(tmp_path):
    src = tmp_path / "x.csv"
    write_signal(GOLDEN_X, src)
    assert run("verify", "--in", src, "--n", 8, "--c", 4) == 0


def test_verify_random_and_perturb(capsys):
    assert run("verify", "--random", "--n", 64, "--c", 8, "--seed", 5) == 0
    assert "PASS" in capsys.readouterr().out
    # max_rel_error is about 3e-16 here, so a zero tolerance takes the failure path
    assert run("verify", "--random", "--n", 64, "--c", 8, "--seed", 5, "--tol", 0) == 1
    assert capsys.readouterr().out.startswith("FAIL ")


def test_verify_prints_the_report_of_verify_against_oracle(capsys):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    for direction in ("forward", "inverse"):
        report = verify_against_oracle(x, make_plan(64, 8), "none", direction)
        assert run("verify", "--random", "--n", 64, "--c", 8, "--seed", 5,
                   "--direction", direction) == 0
        assert capsys.readouterr().out == (f"PASS max_abs_error={report.max_abs_error!r} max_rel_error="
                       f"{report.max_rel_error!r} tolerance={report.tolerance!r}\n"), direction


def test_verify_checks_tolerance_before_any_transform(monkeypatch, capsys, tmp_path):
    def transform(*args, **kwargs):
        raise AssertionError("a transform ran before the tolerance was checked")

    monkeypatch.setattr(ricdft.ric, "_oracle", transform)
    monkeypatch.setattr(ricdft.ric, "_ric", transform)
    assert run("verify", "--random", "--n", 64, "--c", 8, "--tol", "nan") == 2
    assert capsys.readouterr().err.startswith("error: ")
    # the tolerance is checked before the input is read: a bad one is a usage
    # error (2) even when the file is missing, which alone would be an I/O error (3)
    assert run("verify", "--in", tmp_path / "missing.csv", "--n", 8, "--c", 2, "--tol", "nan") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_zeros(tmp_path):
    src = tmp_path / "z.csv"
    write_signal(np.zeros(16, dtype=complex), src)
    assert run("verify", "--in", src, "--n", 16, "--c", 4) == 0


def test_verify_inverse_direction():
    assert run("verify", "--random", "--n", 24, "--c", 6, "--seed", 3,
               "--direction", "inverse", "--mode", "recip-n") == 0


def test_bench_cli(capsys):
    assert run("bench", "--n-list", "16") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,c,l,method,complex_adds,complex_mults"
    # one full and one ric row for each power-of-two c in [2, n/2]
    assert [line.split(",")[1:4] for line in lines[1:]] == [
        [str(c), str(16 // c), method] for c in (2, 4, 8) for method in ("full", "ric")]
    # the counts are a function of the plan: a second run prints the same table
    assert run("bench", "--n-list", "16") == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_bench_bad_grid(capsys):
    assert run("bench", "--n-list", "13") == 2
    assert run("bench", "--n-list", "16", "--c-list", "3") == 2
    assert capsys.readouterr().out == ""  # nothing printed before the error


def test_bench_huge_n_counts_without_allocation():
    # n = 2**53 needs no signal: the table is exact integers, printed at once
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ricdft.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "ricdft", "bench", "--n-list", str(2 ** 53), "--c-list", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    n = 2 ** 53
    assert proc.stdout.splitlines()[1:] == [
        f"{n},2,{n // 2},full,{n * 53},{n // 2 * 53}",
        f"{n},2,{n // 2},ric,{2 * (n // 2 - 1) + 2},1",
    ]


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


def test_raw_non_finite_sample_is_a_parse_error(tmp_path):
    # a NaN in a raw-f64 file is an I/O or parse error (3), found before the
    # file's length is compared with --n, so a wrong --n exits 3 too, not 2
    x = GOLDEN_X.copy()
    x[2] = complex(1.0, math.nan)
    src = tmp_path / "x.raw"
    x.astype("<c16").tofile(src)
    for n in (8, 16):
        assert run("dft", "--in", src, "--in-format", "raw-f64", "--out", tmp_path / "s.csv",
                   "--n", n, "--c", 4) == 3, n


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        run("compress")  # missing required flags
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv, code", [
    (["bench", "--n-list", "abc"], 2),
    (["plan", "--sample-rate", "800", "--targets", "100,x", "--max-n", "64"], 2),
    (["synth", "--n", "16", "--tone", "2:nan", "--out", "{tmp}/t.csv"], 2),
    (["dft", "--in", "{tmp}/x.csv", "--out", "{tmp}/s.csv", "--n", "16", "--c", "4"], 2),
    (["verify", "--random", "--n", "16", "--c", "4", "--tol", "nan"], 2),
    (["verify", "--random", "--n", "16", "--c", "4", "--tol", "-1"], 2),
    (["plan", "--sample-rate", "800", "--targets", "100", "--max-n", "64", "--tol", "nan"], 2),
    (["verify", "--random", "--n", "16", "--c", "4", "--seed", "-1"], 2),
    (["bench", "--n-list", "16", "--c-list", "5"], 2),
    (["plan", "--sample-rate", "800", "--targets", "100,nan", "--max-n", "64"], 2),
    # n = 2**53: a 64 PiB array, beyond any user address space, so numpy refuses it at once
    (["verify", "--random", "--n", str(2 ** 53), "--c", "2"], 2),
    (["synth", "--n", str(2 ** 53), "--tone", "1:1", "--out", "{tmp}/t.csv"], 2),
    (["bench", "--n-list", "16", "--c-list", "16"], 2),
    (["bench", "--n-list", "15"], 2),
    (["dft", "--in", "{tmp}/b.csv", "--out", "{tmp}/o.csv", "--n", "4", "--c", "2"], 3),
    (["verify", "--random", "--in", "{tmp}/x.csv", "--n", "8", "--c", "4"], 2),
    # n = 2**62: n * 16 bytes overflows numpy's size type, which it reports as ValueError
    (["synth", "--n", str(2 ** 62), "--tone", "1:1", "--out", "{tmp}/t.csv"], 2),
    (["verify", "--random", "--n", str(2 ** 62), "--c", "2"], 2),
    (["synth", "--n", "8", "--tone", "1:1e308", "--tone", "1:1e308", "--out", "{tmp}/t.csv"], 2),
    (["verify", "--in", "{tmp}/missing.csv", "--n", "8", "--c", "2", "--tol", "nan"], 2),
    # finite samples whose c-point transform overflows float64
    (["dft", "--in", OVERFLOW_CSV, "--out", "{tmp}/o.csv", "--n", "4", "--c", "2"], 2),
    (["idft", "--in", OVERFLOW_CSV, "--out", "{tmp}/o.csv", "--n", "4", "--c", "2"], 2),
    (["verify", "--in", OVERFLOW_CSV, "--n", "4", "--c", "2"], 2),
    (["verify", "--in", OVERFLOW_CSV, "--n", "4", "--c", "2", "--direction", "inverse"], 2),
    # finite pipeline values whose oracle overflows float64
    (["verify", "--in", ORACLE_OVERFLOW_CSV, "--n", "8", "--c", "2"], 2),
    (["verify", "--in", ORACLE_OVERFLOW_CSV, "--n", "8", "--c", "2", "--direction", "inverse"], 2),
], ids=["bench-bad-list", "plan-bad-target", "synth-nan-amp", "dft-wrong-length",
        "verify-nan-tol", "verify-negative-tol", "plan-nan-tol", "verify-negative-seed",
        "bench-non-divisor", "plan-nan-target", "verify-huge-n", "synth-huge-n",
        "bench-c-above-half", "bench-no-pow2-c", "dft-not-utf8", "verify-in-and-random",
        "synth-unallocatable-n", "verify-unallocatable-n", "synth-overflow",
        "verify-bad-tol-missing-file", "dft-overflow", "idft-overflow", "verify-overflow",
        "verify-inverse-overflow", "verify-oracle-overflow", "verify-inverse-oracle-overflow"])
def test_bad_input_exit_code_without_traceback(tmp_path, argv, code):
    write_signal(GOLDEN_X, tmp_path / "x.csv")  # 8 samples: wrong length for n = 16
    (tmp_path / "b.csv").write_bytes(b"\xff\xfe1,2\n1,2\n1,2\n1,2\n")  # not UTF-8
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ricdft.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ricdft"] + [a.format(tmp=tmp_path) for a in argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
