import json
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from nel.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eigen_json_matches_reference(tmp_path, capsys):
    out = tmp_path / "eig.json"
    code, stdout, _ = run_cli(["eigen", "--n", "1:2", "--method", "backward",
                               "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert [r["n"] for r in payload] == [1, 2]
    assert abs(payload[0]["a_n"] - 1.602573) < 1e-5
    assert abs(payload[1]["a_n"] - 2.388358) < 1e-5
    assert payload[0]["tail_m"] == 1
    summary = json.loads(stdout)
    assert summary["outputs"] == [str(out)]


def test_manifest_sidecar_written(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code, _, _ = run_cli(["fourier", "--n-terms", "10", "--grid", "11",
                          "--out", str(out)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "f.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "fourier"
    assert manifest["outputs"] == [str(out)]
    assert manifest["parameters"]["n_terms"] == 10
    assert manifest["wall_time_s"] >= 0


def test_csv_round_trip_floats(tmp_path, capsys):
    out = tmp_path / "z.csv"
    code, _, _ = run_cli(["limiting-curve", "--grid", "21", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,Z_ode,Z_implicit,diff"
    assert len(lines) == 22
    from nel.limitcurve import implicit_Z

    ts, zis = zip(*((float(t), float(zi)) for t, _, zi, _ in
                    (line.split(",") for line in lines[1:])))
    # 17 significant digits reparse to the exact double
    assert list(zis) == implicit_Z(ts).tolist()


def test_identical_invocations_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run_cli(["pseries", "scan", "--n", "12",
                              "--tau", "0:0.2:0.01", "--out", str(out)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_fig5_dataset(tmp_path, capsys):
    out = tmp_path / "fig5.csv"
    code, _, _ = run_cli(["figures", "fig5", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,x,s"
    assert len(lines) == 1 + 3 * 999
    ns = {line.split(",")[0] for line in lines[1:]}
    assert ns == {"5", "20", "80"}


def test_pseries_rho_stdout(tmp_path, capsys):
    code, stdout, _ = run_cli(["pseries", "rho", "--tau-value", "0.25",
                               "--n", "40"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert abs(payload["rho"] - 1.70002) < 5e-3


def test_extrapolate_raw_values(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, stdout, _ = run_cli(["extrapolate", "--values", "4,3.5,3.25,3.125",
                               "--indices", "1,2,4,8", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["limit"] == pytest.approx(3.0, abs=1e-12)


def test_extrapolate_manifest_records_count_only_for_painleve_c(tmp_path, capsys,
                                                               monkeypatch):
    # the raw route reads no --count and records none; painleve-c records
    # the count it scanned, 12 when --count is not given
    import nel.painleve

    code, _, _ = run_cli(["extrapolate", "--values", "4,3.5,3.25,3.125",
                          "--indices", "1,2,4,8", "--out", str(tmp_path / "r.json")], capsys)
    assert code == 0
    params = json.loads((tmp_path / "r.json.manifest.json").read_text())["parameters"]
    assert "count" not in params
    counts = []

    def ladder(count, **kwargs):
        counts.append(count)
        return [4.28373 * n ** 0.6 for n in range(1, count + 1)]
    monkeypatch.setattr(nel.painleve, "painleve_eigenvalues", ladder)
    code, _, _ = run_cli(["extrapolate", "--target", "painleve-c",
                          "--out", str(tmp_path / "c.json")], capsys)
    assert code == 0
    params = json.loads((tmp_path / "c.json.manifest.json").read_text())["parameters"]
    assert counts == [12] and params["count"] == 12


def test_painleve_fate_subcommand(tmp_path, capsys):
    out = tmp_path / "fate.json"
    code, _, _ = run_cli(["painleve", "fate", "--a", "1.0", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["lock"] == "oscillatory"
    assert payload["pole_count"] == 0


def test_painleve_fate_undecided_is_a_json_error(tmp_path, capsys):
    # at a = 100 neither the energy trap nor the chain rule decides by the
    # window end; the run fails with a typed error and writes no data file
    out = tmp_path / "f.json"
    code, _, err = run_cli(["painleve", "fate", "--a", "100", "--out", str(out)], capsys)
    assert code == 1
    error = json.loads(err)["error"]
    assert (error["type"], error["module"]) == ("Undecided", "nel.painleve")
    assert "x=-135.0" in error["message"]
    assert not out.exists()


def test_painleve_scan_past_the_y0_1_cap_names_y0(tmp_path, capsys):
    # the scan cap C (count + 1.5)^(3/5) + 2 = 9.42 follows the y0 = 1 law;
    # at y0 = 6 the first flip lies above it (at y0 = 5 it is a_1 = 8.854)
    out = tmp_path / "e.json"
    code, _, err = run_cli(["painleve", "eigen", "--count", "1", "--y0", "6",
                            "--out", str(out)], capsys)
    assert code == 1
    error = json.loads(err)["error"]
    assert (error["type"], error["module"]) == ("ScanExhausted", "nel.painleve")
    assert "only 0 fate flips below a=9.42" in error["message"]
    assert "y0=6.0" in error["message"] and "y0 = 1 law" in error["message"]
    assert not out.exists()


def test_eigen_comma_list_computes_only_the_listed_n(tmp_path, capsys, monkeypatch):
    # `--n 7,2,7 --method both` bisects n = 2 and 7 only, once each, and
    # writes their records in increasing n
    import nel.separatrix

    calls = []
    bisect = nel.separatrix.find_eigenvalue_bisect

    def recorded(n, tol=1e-10):
        calls.append(n)
        return bisect(n, tol)

    monkeypatch.setattr(nel.separatrix, "find_eigenvalue_bisect", recorded)
    out = tmp_path / "eig.json"
    code, _, _ = run_cli(["eigen", "--n", "7,2,7", "--method", "both",
                          "--out", str(out)], capsys)
    assert code == 0
    assert sorted(calls) == [2, 7]
    payload = json.loads(out.read_text())
    assert [r["n"] for r in payload] == [2, 7]
    assert all(r["residual"] <= 1e-7 for r in payload)


def test_usage_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(["figures", "fig99", "--out", str(tmp_path / "x.csv")],
                           capsys)
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "UsageError"


@pytest.mark.parametrize("argv", [
    ["extrapolate", "--values", "1,2,3"],
    ["extrapolate", "--values", "1,x,3", "--indices", "1,2,3"],
    ["extrapolate", "--values", "1,2,3", "--indices", "1,two,3"],
    ["extrapolate", "--target", "a-constant", "--indices", "125,x"],
    ["pseries", "scan", "--tau", "0:0.1:0"],
    ["pseries", "scan", "--tau", "0.5:0.1:0.01"],
    ["figures", "fig8", "--step", "0"],
    ["figures", "fig8", "--step", "-0.01"],
    ["figures", "fig8", "--step", "nan"],
    ["figures", "fig4", "--n", "0"],
    ["figures", "fig8", "--n", "0"],
    ["painleve", "eigen", "--count", "0"],
    ["painleve", "eigen", "--count", "25"],
    ["painleve", "envelope", "--x-min", "5"],
    ["painleve", "envelope", "--x-min", "nan"],
    ["painleve", "envelope", "--x-min=-inf"],
    ["painleve", "fate", "--a", "nan"],
    ["painleve", "fate", "--a", "inf"],
    ["painleve", "fate", "--y0", "nan"],
    ["extrapolate", "--target", "painleve-c", "--count", "0"],
    ["extrapolate", "--target", "painleve-c", "--count", "25"],
    ["pseries", "scan", "--tau", "0:inf:0.1"],
    ["pseries", "scan", "--tau", "0:nan:0.1"],
    ["pseries", "scan", "--n", "0"],
    ["pseries", "rho", "--n", "0"],
    ["pseries", "roots", "--n", "0"],
    ["pseries", "rho", "--tau-value", "nan"],
    ["pseries", "rho", "--tau-value", "inf"],
    ["pseries", "roots", "--tau-value", "nan"],
    ["pseries", "roots", "--tau-value", "inf"],
    ["eigen", "--n", "1:2", "--tol", "0"],
    ["eigen", "--n", "1:2", "--tol", "nan"],
    ["limiting-curve", "--grid", "1"],
    ["fourier", "--n-terms", "-5"],
    ["extrapolate", "--values", "1,2,3", "--indices", "1,2,3", "--stages", "9"],
    ["extrapolate", "--values", "1,2,3", "--indices", "1,2,3", "--stages", "0"],
    ["fourier", "--grid", "0"],
    ["fourier", "--grid", "-3"],
    ["pseries", "scan", "--n", "501"],
    ["pseries", "rho", "--n", "501"],
    ["pseries", "roots", "--n", "10000"],
    ["figures", "fig8", "--n", "501"],
    ["eigen", "--n", "6:1", "--method", "backward"],
    ["eigen", "--n", "6:1", "--method", "both"],
    ["eigen", "--n", "1:1000000000", "--method", "backward"],
    ["eigen", "--n", "-1000000000:1", "--method", "both"],
    ["eigen", "--n", "100001", "--method", "backward"],
    ["eigen", "--n", "-100001", "--method", "bisect"],
    ["eigen", "--n", "1,100001", "--method", "both"],
    ["eigen", "--n", "1:2:3", "--method", "backward"],
    ["extrapolate", "--values", "1,2,3", "--indices", "1,2,nan", "--stages", "1"],
    ["extrapolate", "--values", "1,nan,3", "--indices", "1,2,3"],
    ["extrapolate", "--values", "1,2,inf", "--indices", "1,2,3"],
    ["extrapolate", "--values", "1,2,3", "--indices", "1,inf,3"],
    ["extrapolate", "--values", "1,2,3", "--indices", "1,1,2", "--stages", "1"],
    ["extrapolate", "--values", "1,2,3", "--indices", "1,2"],
    ["extrapolate", "--values", "1,2", "--indices", "1,2,3"],
    ["extrapolate", "--values", "1,2,3", "--indices", "3,2,1"],
    ["extrapolate", "--values", "1,2,3", "--indices", "0,1,2"],
    ["extrapolate", "--values", "1,2,3", "--indices", "1,2,3", "--target", "a-constant"],
    ["extrapolate", "--target", "painleve-c", "--indices", "1,2", "--count", "5"],
    ["extrapolate", "--values", "1,2,3", "--indices", "1,2,3", "--count", "7"],
    ["extrapolate", "--target", "a-constant", "--count", "7"],
])
def test_bad_input_is_usage_error(argv, tmp_path, capsys):
    code, _, err = run_cli([*argv, "--out", str(tmp_path / "x.out")], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UsageError"
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("argv", [
    ["--n", "1", "--method", "bisect", "--tol", "1e-300"],
    ["--n", "1", "--method", "both", "--tol", "1e-300"],
    # 1e-15 is below ulp(2^(5/6) sqrt(3) + 7) = 1.8e-15
    ["--n=-3:3", "--method", "both", "--tol", "1e-15"],
], ids=["bisect", "both", "both-1e-15"])
def test_eigen_tol_below_float_spacing_is_usage_error(argv, tmp_path, capsys, monkeypatch,
                                                      deadline):
    # once the bracket ends are adjacent floats, hi - lo > tol held for ever
    import nel.separatrix

    calls = []
    integrate = nel.separatrix.integrate
    monkeypatch.setattr(nel.separatrix, "integrate",
                        lambda *a, **k: calls.append(a) or integrate(*a, **k))
    with deadline(30):
        code, _, err = run_cli(["eigen", *argv, "--out", str(tmp_path / "x.out")], capsys)
    assert (code, calls) == (2, [])
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError" and "--tol" in error["message"]
    assert not (tmp_path / "x.out").exists()


def test_eigen_tol_floor_does_not_apply_to_backward(tmp_path, capsys):
    # the backward trace reads no tol
    out = tmp_path / "eig.json"
    code, _, _ = run_cli(["eigen", "--n", "1", "--method", "backward", "--tol", "1e-300",
                          "--out", str(out)], capsys)
    assert code == 0 and json.loads(out.read_text())[0]["n"] == 1


@pytest.mark.parametrize("text, ns", [
    ("100000", [100000]),
    ("-100000:-99998", [-100000, -99999, -99998]),
    ("99999:100000", [99999, 100000]),
    ("2,-100000", [2, -100000]),
])
def test_eigen_index_range_up_to_the_cap(text, ns):
    from nel.cli import _parse_range

    assert _parse_range(text) == ns


@pytest.mark.parametrize("task", ["scan", "roots"])
def test_pseries_missing_out_rejected_before_computing(task, monkeypatch, capsys):
    import nel.pseries

    calls = []
    for name in ("tau_scan", "all_roots", "ftau_partial_sum"):
        monkeypatch.setattr(nel.pseries, name,
                            lambda *a, _n=name, **k: calls.append(_n))
    code, _, err = run_cli(["pseries", task], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UsageError"
    assert calls == []


@pytest.mark.parametrize("argv, says", [
    (["scan", "--n", "0"], "--n: '0' must be >= 1"),
    (["scan", "--tau", "0:nan:0.1"], "need finite start <= end"),
    (["scan", "--tau", "0:inf:0.1"], "need finite start <= end"),
    (["rho", "--n", "0"], "--n: '0' must be >= 1"),
    (["rho", "--tau-value", "nan"], "--tau-value: 'nan' must be finite"),
    (["roots", "--tau-value", "inf"], "--tau-value: 'inf' must be finite"),
    (["scan", "--n", "501"], "above the partial-sum degree cap 500"),
    (["rho", "--n", "2000"], "above the partial-sum degree cap 500"),
    (["roots", "--n", "501"], "above the partial-sum degree cap 500"),
])
def test_pseries_bad_input_rejected_before_computing(argv, says, tmp_path, monkeypatch,
                                                     capsys):
    import nel.pseries

    calls = []
    for name in ("tau_scan", "rho_n", "all_roots", "ftau_partial_sum"):
        monkeypatch.setattr(nel.pseries, name,
                            lambda *a, _n=name, **k: calls.append(_n))
    code, _, err = run_cli(["pseries", *argv, "--out", str(tmp_path / "x.out")], capsys)
    assert code == 2
    assert says in json.loads(err)["error"]["message"]
    assert calls == []


@pytest.mark.parametrize("argv, says", [
    (["limiting-curve", "--grid", "1000002"], "--grid: '1000002' must be in 2..1000001"),
    (["fourier", "--grid", "1000002"], "--grid: '1000002' must be in 1..1000001"),
    (["pseries", "scan", "--tau", "0:1:1e-9"], "more than 1000001 points"),
    (["pseries", "scan", "--tau", "0:1e300:1e-300"], "more than 1000001 points"),
    (["figures", "fig8", "--step", "1e-9"], "--step: '1e-9' must be >= 1e-6"),
])
def test_oversized_grid_rejected_before_computing(argv, says, tmp_path, monkeypatch,
                                                  capsys):
    # each grid is capped at 1,000,001 points, refused before it is built
    import nel.fourier
    import nel.limitcurve
    import nel.pseries

    calls = []
    for mod, name in ((nel.pseries, "tau_scan"), (nel.pseries, "ftau_partial_sum"),
                      (nel.limitcurve, "solve_limit_ode"),
                      (nel.fourier, "fourier_partial_sum")):
        monkeypatch.setattr(mod, name, lambda *a, _n=name, **k: calls.append(_n))
    code, _, err = run_cli([*argv, "--out", str(tmp_path / "x.out")], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError"
    assert says in error["message"]
    assert calls == []


def test_grid_caps_admit_the_largest_grid():
    from nel.cli import _build_parser, _parse_grid

    parser = _build_parser()
    assert parser.parse_args(["limiting-curve", "--grid", "1000001", "--out", "x"]).grid \
        == 1000001
    assert parser.parse_args(["fourier", "--grid", "1000001", "--out", "x"]).grid == 1000001
    assert parser.parse_args(["figures", "fig8", "--step", "1e-6", "--out", "x"]).step == 1e-6
    assert _parse_grid("0:1:1e-6") == (0.0, 1.0, 1e-6)


@pytest.mark.parametrize("argv, stub", [
    (["pseries", "rho", "--n", "500"], "rho_n"),
    (["figures", "fig8", "--n", "500"], "tau_scan"),
    (["figures", "fig4", "--n", "10000"], "scaled_separatrix"),
    (["figures", "fig4", "--n", "100000"], "scaled_separatrix"),
])
def test_degree_cap_admits_degree_500_and_spares_fig4(argv, stub, tmp_path, monkeypatch,
                                                      capsys):
    # the cap is on the partial-sum degree; fig4's --n is a curve index
    import nel.pseries
    import nel.separatrix

    seen = []
    scan = SimpleNamespace(taus=[0.0], rhos=[1.0], maxima=[], reflection_gap=0.0,
                           half_shift_gap=0.0)
    fakes = {"rho_n": (nel.pseries, lambda tau, n: seen.append(n) or 1.0),
             "tau_scan": (nel.pseries, lambda lo, hi, step, n: seen.append(n) or scan),
             "scaled_separatrix": (nel.separatrix,
                                   lambda n, ts: seen.append(n) or [0.0] * len(ts))}
    mod, fake = fakes[stub]
    monkeypatch.setattr(mod, stub, fake)
    code, _, _ = run_cli([*argv, "--out", str(tmp_path / "x.out")], capsys)
    assert code == 0
    assert seen == [int(argv[-1])]


@pytest.mark.parametrize("argv, says, stub", [
    (["figures", "fig4", "--n", "100001"], "above the separatrix index cap 100000",
     "scaled_separatrix"),
    (["figures", "fig4", "--n", "1000000"], "above the separatrix index cap 100000",
     "scaled_separatrix"),
    (["eigen", "--n", "0", "--method", "bisect"], "bisect needs every n >= 1",
     "find_eigenvalue_bisect"),
    (["eigen", "--n=-3:2", "--method", "bisect"], "bisect needs every n >= 1",
     "find_eigenvalue_bisect"),
    (["eigen", "--n", "2,0", "--method", "bisect"], "bisect needs every n >= 1",
     "find_eigenvalue_bisect"),
    (["fourier", "--n-terms", "2000", "--grid", "1000001"], "more than 33554432",
     "fourier_partial_sum"),
    (["fourier", "--n-terms", "64", "--grid", "524288"], "34078720 sines",
     "fourier_partial_sum"),
])
def test_index_and_size_caps_refuse_before_computing(argv, says, stub, tmp_path,
                                                      monkeypatch, capsys):
    # fig4 at n = 1e6 would hold hundreds of MB of dense records before the
    # step budget ran out; the Fourier section holds two (N + 1) x grid arrays
    import nel.fourier
    import nel.ode
    import nel.separatrix

    home = {"scaled_separatrix": nel.separatrix, "find_eigenvalue_bisect": nel.separatrix,
            "fourier_partial_sum": nel.fourier}
    calls = []
    for mod, name in ((home[stub], stub), (nel.ode, "integrate")):
        monkeypatch.setattr(mod, name, lambda *a, _n=name, **k: calls.append(_n))
    out = tmp_path / "x.out"
    code, _, err = run_cli([*argv, "--out", str(out)], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError"
    assert says in error["message"]
    assert calls == []
    assert not out.exists()


def test_fourier_cap_admits_exactly_two_to_the_25_sines(tmp_path, monkeypatch, capsys):
    import nel.fourier

    seen = []

    def stop(n_terms, xs):
        seen.append((n_terms, len(xs)))
        raise RuntimeError("stub")
    monkeypatch.setattr(nel.fourier, "fourier_partial_sum", stop)
    code, _, _ = run_cli(["fourier", "--n-terms", "63", "--grid", "524288",
                          "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert seen == [(63, 524288)] and 64 * 524288 == 2 ** 25


def _old_fmt(x) -> str:
    # the per-value formatter the CSV writer replaced
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".17g")
    return str(x)


def _old_csv(header, rows) -> str:
    return "".join([",".join(header) + "\n"]
                   + [",".join(_old_fmt(v) for v in row) + "\n" for row in rows])


_CSV_ROWS = {
    "specials": [("z_1", math.nan, 1, -0.0), ("z_2", math.inf, -7, 5e-324),
                 ("Z", -math.inf, 0, 0.1), ("a%s", 1e308, 10 ** 16, -2.5e-310)],
    "numpy-floats": [(np.float64(0.1), np.float64(-1 / 3), np.float64(math.nan)),
                     (np.float64(1e-300), np.float64(-0.0), np.float64(2.0 ** 60))],
    "ints-and-labels": [(k, f"s{k}", 0.2 * k, k * 1.5) for k in range(-3, 40)],
    "large-ints": [(2 ** 53, -(2 ** 53), 10 ** 16)],
    "empty": [],
}


@pytest.mark.parametrize("case", list(_CSV_ROWS))
def test_write_csv_bytes_equal_per_value_format(case, tmp_path):
    from nel.cli import _write_csv

    rows = _CSV_ROWS[case]
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 2)]
    out = tmp_path / "x.csv"
    _write_csv(out, header, rows)
    assert out.read_bytes() == _old_csv(header, rows).encode()


def test_write_csv_streams_an_iterator(tmp_path):
    from nel.cli import _write_csv

    taus = [i / 7 for i in range(100)]
    rhos = [math.sqrt(t) * (-1) ** i for i, t in enumerate(taus)]
    out = tmp_path / "x.csv"
    _write_csv(out, ["tau", "rho"], zip(taus, rhos))
    assert out.read_bytes() == _old_csv(["tau", "rho"], zip(taus, rhos)).encode()
    _write_csv(out, ["tau", "rho"], zip([], []))
    assert out.read_bytes() == b"tau,rho\n"


def test_fig6_dataset(painleve_eigs12, tmp_path, capsys):
    # fig6 scans for a_1..a_4 and traces each eigencurve to x = -12
    eigs, _ = painleve_eigs12
    out = tmp_path / "fig6.csv"
    code, stdout, _ = run_cli(["figures", "fig6", "--out", str(out)], capsys)
    assert code == 0
    assert [e.hex() for e in json.loads(stdout)["eigenvalues"]] == \
        [e.hex() for e in eigs[:4]]
    lines = out.read_text().splitlines()
    assert lines[0] == "k,a,segment,x,y"
    segments = {}
    for k, _, seg, _, y in (line.split(",") for line in lines[1:]):
        segments.setdefault(int(k), set()).add(int(seg))
        assert math.isfinite(float(y))
    # a_1 and a_2 cross no pole, a_3 and a_4 one each
    assert segments == {1: {0}, 2: {0}, 3: {0, 1}, 4: {0, 1}}


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UsageError"


def test_computational_error_surfaced_as_json(tmp_path, capsys):
    # the indices are valid, but so close that richardson's elimination
    # weights pass 1e12 and it raises IllConditioned (decreasing indices are
    # a usage error instead)
    out = tmp_path / "x.json"
    code, _, err = run_cli(["extrapolate", "--values", "1,2,3",
                            "--indices", "1,1.000001,1.000002", "--out", str(out)], capsys)
    assert code == 1
    payload = json.loads(err)
    assert (payload["error"]["type"], payload["error"]["module"]) == \
        ("IllConditioned", "nel.extrapolate")
    assert "weight norm" in payload["error"]["message"]
    assert not out.exists()


def test_fig1_task_rows():
    from nel.cli import _fig1_task

    rows = _fig1_task(3)
    assert rows[0] == (3, 0.6000000000000001, 0.0, 0.6000000000000001)
    assert len(rows) == 1201
    assert abs(rows[-1][2] - 24.0) < 1e-9


def test_fig1_rows_up_to_each_stop_are_those_of_the_full_span(tmp_path, monkeypatch, capsys):
    # each curve's rows with x at or before its stop are, byte for byte,
    # the rows a full-span run to x = 24 writes; only the rows beyond move
    import nel.cosine
    from nel.cosine import rhs_unscaled
    from nel.ode import integrate

    stops = []

    def recorded(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        stops.append(traj.x_end)
        return traj

    monkeypatch.setattr(nel.cosine, "integrate", recorded)
    out = tmp_path / "fig1.csv"
    code, _, _ = run_cli(["figures", "fig1", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,a,x,y" and len(lines) == 1 + 50 * 1201
    assert len(stops) == 50 and all(7.2 < x < 11.2 for x in stops)
    kept = 0
    for k, stop in enumerate(stops, start=1):
        a = 0.2 * k
        n = math.floor(24.0 / 0.02 + 1e-9)
        xs = np.clip(0.02 * np.arange(n + 1), 0.0, 24.0)
        ys = integrate(rhs_unscaled, 0.0, a, 24.0).sample(xs)
        rows = lines[1 + (k - 1) * 1201:1 + k * 1201]
        for line, x, y in zip(rows, xs.tolist(), ys.tolist()):
            if x <= stop:
                assert line == "%.17g,%.17g,%.17g,%.17g" % (k, a, x, y)
                kept += 1
    assert kept == sum(math.floor(x / 0.02) + 1 for x in stops)


@pytest.mark.parametrize("argv, says", [
    (["fig1", "--n", "5"], "--n applies to fig4 and fig8, not fig1"),
    (["fig2", "--n", "5"], "--n applies to fig4 and fig8, not fig2"),
    (["fig5", "--n", "80"], "--n applies to fig4 and fig8, not fig5"),
    (["fig1", "--step", "0.01"], "--step applies to fig8, not fig1"),
    (["fig4", "--step", "0.01"], "--step applies to fig8, not fig4"),
    (["fig7", "--n", "3", "--step", "0.01"], "--n applies to fig4 and fig8, not fig7"),
])
def test_figures_refuse_flags_they_do_not_read(argv, says, tmp_path, monkeypatch, capsys):
    import nel.cosine
    import nel.fourier
    import nel.ode
    import nel.separatrix

    calls = []
    for mod, name in ((nel.cosine, "forward_values"), (nel.ode, "integrate"),
                      (nel.separatrix, "trace_separatrix_backward"),
                      (nel.fourier, "fourier_partial_sum")):
        monkeypatch.setattr(mod, name, lambda *a, _n=name, **k: calls.append(_n))
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(["figures", *argv, "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    error = json.loads(err)["error"]
    assert (error["type"], error["message"]) == ("UsageError", says)
    assert calls == []
    assert not out.exists()


def test_figure_manifests_record_only_flags_read(tmp_path, monkeypatch, capsys):
    # fig8 still records the step it scanned at; the other figures, which
    # read no --step, no longer record one
    import nel.pseries

    scan = SimpleNamespace(taus=[0.0], rhos=[1.0], maxima=[], reflection_gap=0.0,
                           half_shift_gap=0.0)
    monkeypatch.setattr(nel.pseries, "tau_scan", lambda lo, hi, step, n: scan)
    for name in ("fig5", "fig8"):
        code, _, _ = run_cli(["figures", name, "--out", str(tmp_path / f"{name}.csv")], capsys)
        assert code == 0
    params = {name: json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())["parameters"]
              for name in ("fig5", "fig8")}
    assert params["fig5"] == {"subcommand": "figures", "figure": "fig5"}
    assert params["fig8"] == {"subcommand": "figures", "figure": "fig8", "step": 0.0005}


def test_fig7_oscillatory_segment_reaches_window_end(tmp_path, capsys):
    # index grid x0 - i*0.01: no drift, so the x = -40 endpoint is written
    out = tmp_path / "fig7.csv"
    code, _, _ = run_cli(["figures", "fig7", "--out", str(out)], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    osc = [r for r in rows if r[0] == "oscillatory"]
    assert osc[0][3] == "0"
    assert float(osc[-1][3]) == -40.0


def test_fig3_dataset(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    code, _, _ = run_cli(["figures", "fig3", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "series,t,value"
    series = {line.split(",")[0] for line in lines[1:]}
    assert series == {"z_1", "z_2", "z_3", "z_4", "Z"}


def test_run_quick_preset(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, stdout, _ = run_cli(["run", "--preset", "quick",
                               "--out-dir", str(out_dir)], capsys)
    assert code == 0
    assert (out_dir / "run.manifest.json").exists()
    manifest = json.loads((out_dir / "run.manifest.json").read_text())
    for name in manifest["outputs"]:
        assert os.path.exists(name)
    assert (out_dir / "eigenvalues.json").exists()


@pytest.mark.parametrize("task", ["scan", "roots"])
def test_eigenvalue_failure_surfaced_as_json(task, tmp_path, monkeypatch, capsys):
    # LAPACK's eigenvalue iteration does not converge: the root solver has no
    # fallback, so the command ends in a typed error and writes no data file
    def unconverged(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", unconverged)
    out = tmp_path / "x.out"
    code, _, err = run_cli(["pseries", task, "--n", "10", "--tau", "0:0.1:0.05",
                            "--out", str(out)], capsys)
    assert code == 1
    error = json.loads(err)["error"]
    assert (error["type"], error["module"]) == ("LinAlgError", "numpy.linalg")
    assert not out.exists()


@pytest.mark.parametrize("indices", ["0,1,2", "5,3", "125,200000", "125", "125,125"])
def test_a_constant_indices_refused_before_any_trace(indices, tmp_path, monkeypatch,
                                                      capsys):
    # a_n ~ 2^(5/6) sqrt(n) is traced only at 1 <= n <= 100000; the guard
    # runs before the first trace, not after it
    import nel.separatrix

    calls = []
    monkeypatch.setattr(nel.separatrix, "trace_separatrix_backward",
                        lambda n, **k: calls.append(n))
    out = tmp_path / "a.json"
    code, _, err = run_cli(["extrapolate", "--target", "a-constant", "--indices", indices,
                            "--out", str(out)], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError"
    assert "at least two strictly increasing integers in 1..100000" in error["message"]
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("indices, first", [("1,2", 1), ("99999,100000", 99999)])
def test_a_constant_indices_admit_the_cap(indices, first, tmp_path, monkeypatch, capsys):
    import nel.separatrix

    calls = []

    def stop(n, **k):
        calls.append(n)
        raise RuntimeError("stub")
    monkeypatch.setattr(nel.separatrix, "trace_separatrix_backward", stop)
    code, _, _ = run_cli(["extrapolate", "--target", "a-constant", "--indices", indices,
                          "--out", str(tmp_path / "a.json")], capsys)
    assert code == 1
    assert calls == [first]


# -- one parser per process ---------------------------------------------------


def test_parser_is_built_once():
    from nel.cli import _build_parser

    assert _build_parser() is _build_parser()


def test_parser_is_not_built_at_import():
    import subprocess
    import sys

    import nel

    src = os.path.dirname(os.path.dirname(nel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import nel.cli; print(nel.cli._build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0\n")


def test_no_value_carries_over_between_calls(tmp_path, monkeypatch, capsys):
    # fig4 --n 3000 sets the shared --n flag; the next fig8 still gets its
    # own defaults, degree 50 at step 0.0005
    import nel.pseries
    import nel.separatrix

    seen = []
    scan = SimpleNamespace(taus=[0.0], rhos=[1.0], maxima=[], reflection_gap=0.0,
                           half_shift_gap=0.0)
    monkeypatch.setattr(nel.separatrix, "scaled_separatrix",
                        lambda n, ts: seen.append(("fig4", n)) or [0.0] * len(ts))
    monkeypatch.setattr(nel.pseries, "tau_scan",
                        lambda lo, hi, step, n: seen.append(("fig8", step, n)) or scan)
    for argv in (["fig4", "--n", "3000"], ["fig8"]):
        code, _, _ = run_cli(["figures", *argv, "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 0
    assert seen == [("fig4", 3000), ("fig8", 0.0005, 50)]


@pytest.mark.parametrize("bad", [
    ["pseries", "rho", "--n", "501"],                       # refused after the parse
    ["pseries", "rho", "--tau-value", "0.4", "--n", "501"],
    ["pseries", "rho", "--tau-value", "0.4", "--n", "0"],   # refused inside the parse
    ["pseries", "rho", "--tau-value", "0.4", "--bogus"],
])
def test_call_after_a_failed_call_is_unchanged(bad, capsys):
    good = ["pseries", "rho"]
    code, alone, _ = run_cli(good, capsys)
    assert code == 0
    code, stdout, err = run_cli(bad, capsys)
    assert (code, stdout, json.loads(err)["error"]["type"]) == (2, "", "UsageError")
    assert run_cli(good, capsys) == (0, alone, "")


def test_version_twice(capsys):
    from nel import __version__

    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == __version__ + "\n"
