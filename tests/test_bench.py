"""``ricdft bench``: the closed-form operation counts of each plan as a csv table."""

import csv
import io

from ricdft import make_plan, op_counts, ric_op_counts
from ricdft.cli import main

HEADER = ["n", "c", "l", "method", "complex_adds", "complex_mults"]


def table(capsys, *argv):
    """Rows of ``ricdft bench`` stdout, counts as ints."""
    assert main(["bench", *map(str, argv)]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == ",".join(HEADER)
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        for key in ("n", "c", "l", "complex_adds", "complex_mults"):
            row[key] = int(row[key])
    return rows


def test_fold_add_counts_exact(capsys):
    rows = table(capsys, "--n-list", 8, "--c-list", 4)
    # fold: c*(l-1) = 4 adds on top of the radix-2 engine's c*log2(c); full: n*log2(n)
    assert rows == [
        {"n": 8, "c": 4, "l": 2, "method": "full", "complex_adds": 24, "complex_mults": 12},
        {"n": 8, "c": 4, "l": 2, "method": "ric", "complex_adds": 4 + 8, "complex_mults": 4},
    ]
    rows = table(capsys, "--n-list", 24, "--c-list", 6)  # direct counts at lengths 24 and 6
    assert [(r["complex_adds"], r["complex_mults"]) for r in rows] == [(24 * 23, 24 * 24),
                                                                       (6 * 3 + 6 * 5, 6 * 6)]


def test_sic_point_multiplications_below_full_fft(capsys):
    for n in (2 ** 10, 24000):
        rows = table(capsys, "--n-list", n, "--c-list", 2 ** 5)
        by_method = {r["method"]: r for r in rows}
        assert by_method["ric"]["complex_mults"] <= by_method["full"]["complex_mults"]


def test_multiplications_grow_with_c(capsys):
    rows = table(capsys, "--n-list", 256)
    assert [r["c"] for r in rows if r["method"] == "ric"] == [2, 4, 8, 16, 32, 64, 128]
    mults = [r["complex_mults"] for r in rows if r["method"] == "ric"]
    assert mults == sorted(mults)


def test_rows_sorted(capsys):
    rows = table(capsys, "--n-list", "24,16,24")
    keys = [(r["n"], r["c"], r["method"]) for r in rows]
    assert keys == sorted(keys) and len(keys) == len(set(keys))


def test_emit_csv_round_trip(capsys):
    # every row is the library's closed form for its plan
    rows = table(capsys, "--n-list", "64,24000", "--c-list", "2,32")
    assert len(rows) == 8
    for row in rows:
        plan = make_plan(row["n"], row["c"])
        assert row["l"] == plan.l
        want = ric_op_counts(plan) if row["method"] == "ric" else op_counts(plan.n)
        assert (row["complex_adds"], row["complex_mults"]) == want


def test_determinism_of_counts_and_errors(capsys):
    # counts are a function of the plan, so two runs print the same table ...
    argv = ("--n-list", "64,24", "--c-list", "2,8")
    assert table(capsys, *argv) == table(capsys, *argv)
    # ... and a bad grid is refused with the same message each time
    errors = []
    for _ in range(2):
        assert main(["bench", "--n-list", "16", "--c-list", "5"]) == 2
        errors.append(capsys.readouterr())
    assert errors[0] == errors[1] and errors[0].err.startswith("error: ")


def test_config_errors(capsys):
    for argv in (["--n-list", "15"],  # no power-of-two divisor in [2, n/2]
                 ["--n-list", "13"], ["--n-list", ","], ["--n-list", "16.5"],
                 ["--n-list", "16", "--c-list", "5"], ["--n-list", "16", "--c-list", "16"],
                 ["--n-list", "16", "--c-list", "4.0"], ["--n-list", "-16"]):
        assert main(["bench", *argv]) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv
