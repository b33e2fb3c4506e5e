import csv
import json

import pytest

from ricdft import BenchConfig, ConfigError, emit_report, run_benchmark


def small_config(**overrides):
    base = dict(n_list=(16,), c_policy="pow2", trials=3, seed=7)
    base.update(overrides)
    return BenchConfig(**base)


def test_fold_add_counts_exact():
    report = run_benchmark(small_config(n_list=(8,), c_policy="explicit", c_list=(4,)))
    ric_rows = [r for r in report.rows if r.method == "ric"]
    assert len(ric_rows) == 1
    row = ric_rows[0]
    # fold contributes c*(l-1) = 4 adds on top of the engine's n*log2 tally
    engine_adds = row.c * (row.c.bit_length() - 1)
    assert row.complex_adds == row.c * (row.l - 1) + engine_adds
    assert row.complex_mults == (row.c // 2) * (row.c.bit_length() - 1)


def test_all_methods_agree():
    report = run_benchmark(small_config(n_list=(16, 24), c_policy="all"))
    for row in report.rows:
        assert row.max_rel_error <= 1e-9, row


def test_sic_point_multiplications_below_full_fft():
    config = small_config(n_list=(2 ** 10,), c_policy="explicit", c_list=(2 ** 5,),
                          direct_limit=0)
    report = run_benchmark(config)
    by_method = {r.method: r for r in report.rows}
    assert by_method["ric"].complex_mults <= by_method["full"].complex_mults


def test_multiplications_grow_with_c():
    report = run_benchmark(small_config(n_list=(256,), c_policy="pow2", direct_limit=0))
    ric_rows = [r for r in report.rows if r.method == "ric"]
    mults = [r.complex_mults for r in sorted(ric_rows, key=lambda r: r.c)]
    assert mults == sorted(mults)


def test_rows_sorted():
    report = run_benchmark(small_config(n_list=(24, 16), c_policy="all"))
    keys = [(r.n, r.c, r.method) for r in report.rows]
    assert keys == sorted(keys)


def test_determinism_of_counts_and_errors():
    config = small_config(n_list=(64,))
    a = run_benchmark(config)
    b = run_benchmark(config)
    strip = lambda rows: [(r.n, r.c, r.method, r.complex_adds, r.complex_mults, r.max_rel_error)
                          for r in rows]
    assert strip(a.rows) == strip(b.rows)


def test_config_errors():
    with pytest.raises(ConfigError):
        run_benchmark(small_config(trials=0))
    with pytest.raises(ConfigError):
        run_benchmark(small_config(n_list=()))
    with pytest.raises(ConfigError):
        run_benchmark(small_config(n_list=(15,), c_policy="pow2"))  # no pow2 divisor
    with pytest.raises(ConfigError):
        run_benchmark(small_config(n_list=(13,), c_policy="all"))  # prime
    with pytest.raises(ConfigError):
        run_benchmark(small_config(c_policy="explicit", c_list=()))
    with pytest.raises(ConfigError):
        run_benchmark(small_config(c_policy="explicit", c_list=(5,)))
    with pytest.raises(ConfigError):
        run_benchmark(small_config(c_policy="nonsense"))
    with pytest.raises(ConfigError):
        run_benchmark(small_config(n_list=(16.5,), trials=1))  # not an integer size
    with pytest.raises(ConfigError):
        run_benchmark(small_config(c_policy="explicit", c_list=(4.0,)))
    # trials, seed and direct_limit follow the same integer size rule
    for bad in (dict(seed=-1), dict(trials=2.5), dict(trials=True), dict(direct_limit="x")):
        with pytest.raises(ConfigError):
            run_benchmark(small_config(**bad))


def test_emit_csv_round_trip(tmp_path):
    report = run_benchmark(small_config())
    path = tmp_path / "report.csv"
    emit_report(report, path, "csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report.rows)
    for got, want in zip(rows, report.rows):
        assert int(got["n"]) == want.n
        assert int(got["c"]) == want.c
        assert got["method"] == want.method
        assert int(got["complex_adds"]) == want.complex_adds
        assert int(got["complex_mults"]) == want.complex_mults
        assert float(got["max_rel_error"]) == want.max_rel_error


def test_emit_json(tmp_path):
    report = run_benchmark(small_config())
    path = tmp_path / "report.json"
    emit_report(report, path, "json")
    doc = json.loads(path.read_text())
    assert doc["seed"] == 7
    assert doc["trials"] == 3
    assert "note" in doc
    assert len(doc["rows"]) == len(report.rows)
    assert doc["rows"][0]["method"] == report.rows[0].method


def test_emit_markdown(tmp_path):
    report = run_benchmark(small_config())
    path = tmp_path / "report.md"
    emit_report(report, path, "markdown")
    lines = path.read_text().splitlines()
    assert lines[0].startswith("| n | c | l | method |")
    assert lines[1].startswith("| ---")
    # one data row per report row
    assert sum(1 for line in lines[2:] if line.startswith("| ")) == len(report.rows)


def test_emit_unknown_format(tmp_path):
    report = run_benchmark(small_config())
    with pytest.raises(ConfigError):
        emit_report(report, tmp_path / "x", "yaml")
