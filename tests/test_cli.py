import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nel
from nel.cli import _CHUNK, _col, _write_csv, main

from published import PAINLEVE_C, PAINLEVE_EIGS, RHO_MAX, RHO_TAU
from reference import quartic_read


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


@pytest.mark.parametrize("n", [50, 51, 499, 500])
def test_pseries_roots_and_rho_print_the_same_rho(n, tmp_path, capsys):
    # the roots file's moduli, its summary and rho's payload are one value,
    # criterion 12's largest maximum up to the degree cap 500 (499 takes the
    # odd degrees' deflated route there); every root meets test_residual_bound's
    # bound |p(z)| <= 1e-10 sum|a_k| max(1, |z|)^n, with sum|a_k| = n + 1
    out = tmp_path / "roots.json"
    argv = ["--tau-value", repr(RHO_TAU), "--n", str(n)]
    _, rho_stdout, _ = run_cli(["pseries", "rho", *argv], capsys)
    _, roots_stdout, _ = run_cli(["pseries", "roots", *argv, "--out", str(out)], capsys)
    rho = json.loads(rho_stdout)["rho"]
    assert json.loads(roots_stdout)["rho"].hex() == rho.hex()
    roots = json.loads(out.read_text())["roots"]
    assert len(roots) == n and roots[0]["abs"].hex() == rho.hex()
    assert abs(rho - RHO_MAX) <= 5e-4
    bound = [1e-10 * (n + 1) * max(1.0, r["abs"]) ** n for r in roots]
    assert all(r["residual"] <= b for r, b in zip(roots, bound))


def test_extrapolate_raw_values(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, stdout, _ = run_cli(["extrapolate", "--values", "4,3.5,3.25,3.125",
                               "--indices", "1,2,4,8", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["limit"] == pytest.approx(3.0, abs=1e-12)


def test_extrapolate_refuses_a_single_value(tmp_path, capsys):
    # refused before the --stages default, whose range 1..0 would be empty
    out = tmp_path / "x.json"
    code, stdout, err = run_cli(["extrapolate", "--values", "4", "--indices", "1",
                                 "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    error = json.loads(err)["error"]
    assert (error["type"], error["message"]) == ("UsageError",
                                                 "--values needs at least two entries")
    assert not out.exists()


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
        return [PAINLEVE_C * n ** 0.6 for n in range(1, count + 1)]
    monkeypatch.setattr(nel.painleve, "painleve_eigenvalues", ladder)
    code, _, _ = run_cli(["extrapolate", "--target", "painleve-c",
                          "--out", str(tmp_path / "c.json")], capsys)
    assert code == 0
    params = json.loads((tmp_path / "c.json.manifest.json").read_text())["parameters"]
    assert counts == [12] and params["count"] == 12


def test_painleve_fate_subcommand(tmp_path, capsys):
    # a = 55 enters the energy trap inside the window after 35 poles; its
    # 4-extrema lock starts just past x = -135
    for a, poles in (("1.0", 0), ("55", 35)):
        out = tmp_path / f"fate{a}.json"
        code, _, _ = run_cli(["painleve", "fate", "--a", a, "--out", str(out)], capsys)
        assert code == 0
        payload = json.loads(out.read_text())
        assert (payload["lock"], payload["pole_count"]) == ("oscillatory", poles)


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


def test_painleve_fate_above_the_floor_without_the_signature_decides(tmp_path, capsys,
                                                                   deadline):
    # y0 = 50 starts above the chart's entry height short of the pole
    # signature v^2 >= y^3/3: the run turns in (y, v) and the fate has the
    # verdict and pole count of a run at rel_tol 1e-13
    from nel.ode import IntegratorConfig
    from nel.painleve import classify_fate

    out = tmp_path / "f.json"
    with deadline(30):
        code, _, _ = run_cli(["painleve", "fate", "--a", "0", "--y0", "50",
                              "--out", str(out)], capsys)
        ref = classify_fate(0.0, IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15,
                                                  max_steps=2_000_000), y0=50.0)
    assert code == 0
    payload = json.loads(out.read_text())
    assert (payload["lock"], payload["pole_count"]) == (ref.lock, ref.pole_count)


@pytest.mark.parametrize("y0", ["5.5", "6", "-3.5"])
def test_painleve_eigen_y0_outside_the_checked_range_is_a_usage_error(tmp_path, capsys,
                                                                      monkeypatch, y0):
    # the eigen scan cap follows the y0 = 1 law and was checked for y0 in
    # -3..5; outside it the scan used to end in ScanExhausted (exit 1)
    import nel.painleve

    calls = []
    monkeypatch.setattr(nel.painleve, "classify_fate", lambda *a, **kw: calls.append(a))
    out = tmp_path / "e.json"
    code, _, err = run_cli(["painleve", "eigen", "--count", "1", "--y0", y0,
                            "--out", str(out)], capsys)
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError" and "-3..5" in error["message"]
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("argv", [["fate", "--a", "1.0", "--y0", "6"],
                                  ["envelope", "--a", "1.0", "--y0", "-4"]])
def test_painleve_fate_and_envelope_accept_y0_outside_the_eigen_range(tmp_path, capsys,
                                                                      argv):
    out = tmp_path / "f.json"
    code, _, _ = run_cli(["painleve", *argv, "--out", str(out)], capsys)
    assert code == 0 and out.exists()


def test_painleve_envelope_needs_a(tmp_path, capsys, monkeypatch):
    # envelope has no default slope: at a = 0 the window holds one extremum,
    # so its parser requires --a and a run without it is refused before any
    # integration; fate keeps a = 0
    import nel.painleve

    calls = []
    monkeypatch.setattr(nel.painleve, "integrate_with_poles", lambda *a, **k: calls.append(a))
    out = tmp_path / "env.json"
    code, stdout, err = run_cli(["painleve", "envelope", "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    error = json.loads(err)["error"]
    assert (error["type"], error["message"]) == ("UsageError",
                                                 "the following arguments are required: --a")
    assert calls == [] and not out.exists()
    assert not (tmp_path / "env.json.manifest.json").exists()


def test_eigen_comma_list_computes_only_the_listed_n(cross_method_10, tmp_path, capsys,
                                                     monkeypatch):
    # `--n 7,2,7` computes n = 2 and 7 only, once each, by every method, and
    # writes their records in increasing n (a_min is a_2, a_max is a_7), to
    # the library's bits: the backward a_n, or with --method bisect the
    # bisection's, and with both the bisection's distance from the backward a_n
    import nel.separatrix

    calls = {"bisect": [], "backward": []}
    bisect = nel.separatrix.find_eigenvalue_bisect
    trace = nel.separatrix.trace_separatrix_backward

    def bisected(n, tol=1e-10):
        calls["bisect"].append(n)
        return bisect(n, tol)

    def traced(n, **kwargs):
        calls["backward"].append(n)
        return trace(n, **kwargs)

    monkeypatch.setattr(nel.separatrix, "find_eigenvalue_bisect", bisected)
    monkeypatch.setattr(nel.separatrix, "trace_separatrix_backward", traced)
    for text, method in (("2,7", "both"), ("7,2,7", "both"), ("7,2,7", "backward"),
                         ("7,2,7", "bisect")):
        for routed in calls.values():
            routed.clear()
        out = tmp_path / f"{method}.json"
        code, stdout, _ = run_cli(["eigen", "--n", text, "--method", method,
                                   "--out", str(out)], capsys)
        assert code == 0
        for route, routed in calls.items():
            assert sorted(routed) == ([2, 7] if method in (route, "both") else []), method
        payload = json.loads(out.read_text())
        route = "bisect" if method == "bisect" else "backward"
        assert [(r["n"], r["method"]) for r in payload] == [(2, route), (7, route)]
        summary = json.loads(stdout)
        assert (summary["count"], summary["a_min"], summary["a_max"]) == \
            (2, payload[0]["a_n"], payload[1]["a_n"])
        for r in payload:
            bis, back = cross_method_10[r["n"]]
            assert r["a_n"].hex() == (bis if method == "bisect" else back).hex(), method
            if method == "both":
                assert r["residual"].hex() == abs(bis - back).hex() and r["residual"] <= 1e-7
            else:
                assert r["residual"] is None


def test_eigen_table_carries_the_library_bits(cross_method_10, tmp_path, capsys):
    # criterion 2 as printed: `eigen --n 1:10 --method both` writes the
    # backward a_n and the bisection's distance from it, to the bits the
    # library computes, increasing and within 1e-7
    out = tmp_path / "eig10.json"
    code, _, _ = run_cli(["eigen", "--n", "1:10", "--method", "both", "--out", str(out)],
                         capsys)
    assert code == 0
    recs = json.loads(out.read_text())
    assert [r["n"] for r in recs] == list(range(1, 11))
    assert all(r["a_n"] < s["a_n"] for r, s in zip(recs, recs[1:]))
    for r in recs:
        bis, back = cross_method_10[r["n"]]
        assert (r["a_n"].hex(), r["residual"].hex()) == (back.hex(), abs(bis - back).hex())
        assert r["residual"] <= 1e-7


def test_eigen_backward_traces_reach_the_index_cap(tmp_path, capsys, deadline):
    # every n, negative n included, starts at the edge of the odd-bundle
    # strip; n = -100,000 is the index cap and the longest trace
    out = tmp_path / "strip.json"
    with deadline(60):
        code, _, _ = run_cli(["eigen", "--n=-100000,-3,0,6,7,12,13", "--method", "backward",
                              "--out", str(out)], capsys)
    assert code == 0
    assert [r["n"] for r in json.loads(out.read_text())] == [-100000, -3, 0, 6, 7, 12, 13]


@pytest.mark.parametrize("method", ["both", "backward", "bisect"])
def test_eigen_intercepts_must_increase_by_every_method(method, tmp_path, monkeypatch,
                                                        capsys):
    # a solver whose intercepts fall with n ends the run in a typed error,
    # and no data file is written
    import nel.separatrix

    monkeypatch.setattr(nel.separatrix, "trace_separatrix_backward",
                        lambda n, **k: SimpleNamespace(y_end=-float(n)))
    monkeypatch.setattr(nel.separatrix, "find_eigenvalue_bisect", lambda n, tol: -float(n))
    out = tmp_path / "eig.json"
    code, stdout, err = run_cli(["eigen", "--n", "1:3", "--method", method,
                                 "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    error = json.loads(err)["error"]
    assert (error["type"], error["message"]) == ("RuntimeError",
                                                 "intercepts not increasing at n=2")
    assert not out.exists()


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
    # the largest n sets the floor, whatever the smaller n listed with it
    *[["--n=-2,0,1," + str(n), "--method", "both", "--tol",
       repr(math.nextafter(math.ulp(2.0 ** (5.0 / 6.0) * math.sqrt(n) + 7.0), 0.0))]
      for n in (1, 4, 100, 100_000)],
    # not positive and finite: refused by the flag's type
    *[["--n=-1:2", "--method", "both", "--tol=" + tol] for tol in ("0", "-1", "nan", "inf")],
], ids=["bisect", "both", "both-1e-15", "both-floor-1", "both-floor-4", "both-floor-100",
        "both-floor-100000", "both-0", "both-negative", "both-nan", "both-inf"])
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
    # the backward trace reads no tol, so --tol with it is a usage error
    # whatever its value, and `both` bisects no n <= 0
    out = tmp_path / "eig.json"
    code, _, err = run_cli(["eigen", "--n", "1", "--method", "backward", "--tol", "1e-300",
                            "--out", str(out)], capsys)
    assert (code, json.loads(err)["error"]["type"]) == (2, "UsageError")
    assert list(tmp_path.iterdir()) == []
    code, _, _ = run_cli(["eigen", "--n=-1:0", "--method", "both", "--tol", "1e-300",
                          "--out", str(out)], capsys)
    assert code == 0 and [r["n"] for r in json.loads(out.read_text())] == [-1, 0]


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
    for name in ("tau_scan", "partial_sum_roots", "ftau_partial_sum"):
        monkeypatch.setattr(nel.pseries, name,
                            lambda *a, _n=name, **k: calls.append(_n))
    code, _, err = run_cli(["pseries", task], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UsageError"
    assert calls == []


# explicit ids, the ones pytest built from argv and message, so that rewording
# a message renames no test
@pytest.mark.parametrize("argv, says", [
    pytest.param(["scan", "--n", "0"], "--n: '0' must be >= 1",
                 id="argv0---n: '0' must be >= 1"),
    pytest.param(["scan", "--tau", "0:nan:0.1"], "need finite start <= end",
                 id="argv1-need finite start <= end"),
    pytest.param(["scan", "--tau", "0:inf:0.1"], "need finite start <= end",
                 id="argv2-need finite start <= end"),
    pytest.param(["rho", "--n", "0"], "--n: '0' must be >= 1",
                 id="argv3---n: '0' must be >= 1"),
    pytest.param(["rho", "--tau-value", "nan"], "--tau-value: 'nan' must be finite",
                 id="argv4---tau-value: 'nan' must be finite"),
    pytest.param(["roots", "--tau-value", "inf"], "--tau-value: 'inf' must be finite",
                 id="argv5---tau-value: 'inf' must be finite"),
    pytest.param(["scan", "--n", "501"], "above the partial-sum degree cap 500",
                 id="argv6-above the partial-sum degree cap 500"),
    pytest.param(["rho", "--n", "2000"], "above the partial-sum degree cap 500",
                 id="argv7-above the partial-sum degree cap 500"),
    pytest.param(["roots", "--n", "501"], "above the partial-sum degree cap 500",
                 id="argv8-above the partial-sum degree cap 500"),
])
def test_pseries_bad_input_rejected_before_computing(argv, says, tmp_path, monkeypatch,
                                                     capsys):
    import nel.pseries

    calls = []
    for name in ("tau_scan", "rho_n", "partial_sum_roots", "ftau_partial_sum"):
        monkeypatch.setattr(nel.pseries, name,
                            lambda *a, _n=name, **k: calls.append(_n))
    code, _, err = run_cli(["pseries", *argv, "--out", str(tmp_path / "x.out")], capsys)
    assert code == 2
    assert says in json.loads(err)["error"]["message"]
    assert calls == []


# explicit ids, the ones pytest built from argv and message, so that rewording
# a message renames no test
@pytest.mark.parametrize("argv, says", [
    pytest.param(["limiting-curve", "--grid", "1000002"],
                 "--grid: '1000002' must be in 2..1000001",
                 id="argv0---grid: '1000002' must be in 2..1000001"),
    pytest.param(["fourier", "--grid", "1000002"], "--grid: '1000002' must be in 1..1000001",
                 id="argv1---grid: '1000002' must be in 1..1000001"),
    pytest.param(["pseries", "scan", "--tau", "0:1:1e-9"], "more than 1000001 points",
                 id="argv2-more than 1000001 points"),
    pytest.param(["pseries", "scan", "--tau", "0:1e300:1e-300"], "more than 1000001 points",
                 id="argv3-more than 1000001 points"),
    pytest.param(["figures", "fig8", "--step", "1e-9"], "--step: '1e-9' must be >= 1e-6",
                 id="argv4---step: '1e-9' must be >= 1e-6"),
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


# explicit ids, the ones pytest built from argv and message, so that rewording
# a message renames no test
@pytest.mark.parametrize("argv, says, stub", [
    pytest.param(["figures", "fig4", "--n", "100001"], "above the separatrix index cap 100000",
                 "scaled_separatrix",
                 id="argv0-above the separatrix index cap 100000-scaled_separatrix"),
    pytest.param(["figures", "fig4", "--n", "1000000"], "above the separatrix index cap 100000",
                 "scaled_separatrix",
                 id="argv1-above the separatrix index cap 100000-scaled_separatrix"),
    pytest.param(["eigen", "--n", "0", "--method", "bisect"], "bisect needs every n >= 1",
                 "find_eigenvalue_bisect",
                 id="argv2-bisect needs every n >= 1-find_eigenvalue_bisect"),
    pytest.param(["eigen", "--n=-3:2", "--method", "bisect"], "bisect needs every n >= 1",
                 "find_eigenvalue_bisect",
                 id="argv3-bisect needs every n >= 1-find_eigenvalue_bisect"),
    pytest.param(["eigen", "--n", "2,0", "--method", "bisect"], "bisect needs every n >= 1",
                 "find_eigenvalue_bisect",
                 id="argv4-bisect needs every n >= 1-find_eigenvalue_bisect"),
    pytest.param(["fourier", "--n-terms", "2000", "--grid", "1000001"], "more than 33554432",
                 "fourier_partial_sum", id="argv5-more than 33554432-fourier_partial_sum"),
    pytest.param(["fourier", "--n-terms", "64", "--grid", "524288"], "34078720 sines",
                 "fourier_partial_sum", id="argv6-34078720 sines-fourier_partial_sum"),
])
def test_index_and_size_caps_refuse_before_computing(argv, says, stub, tmp_path,
                                                      monkeypatch, capsys):
    # fig4 at n = 1e6 would spend the trace's whole step budget before it
    # failed; the Fourier section's cap bounds its sines, so its time
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


def _block_rows(blocks) -> list:
    # the rows a list of (lead, columns) blocks stands for
    return [(*lead, *vals) for lead, columns in blocks for vals in zip(*columns)]


_XS = [0.02 * i for i in range(1201)]
_TS = [i / 2000 for i in range(2001)]
_LONG = [math.sqrt(i) / 7 for i in range(2 * _CHUNK + 17)]

# each case: (blocks, the rows the writer must write); the rows are those
# the blocks expand to, with raw numbers where a block holds a _col column
_CSV_BLOCKS = {
    "specials": [(("z_1",), ([math.nan], [1], [-0.0])),
                 (("z_2",), ([math.inf], [-7], [5e-324])),
                 (("Z",), ([-math.inf], [0], [0.1])),
                 (("a%s",), ([1e308], [10 ** 16], [-2.5e-310]))],
    "numpy-floats": [((np.float64(0.1),),
                      (np.array([-1 / 3, -0.0]), np.array([math.nan, 2.0 ** 60]))),
                     ((), (np.array([1e-300]), np.array([-0.0]), np.array([math.nan])))],
    "ints-and-labels": [((), (list(range(-3, 40)), [f"s{k}" for k in range(-3, 40)],
                              [0.2 * k for k in range(-3, 40)],
                              [k * 1.5 for k in range(-3, 40)]))],
    "large-ints": [((2 ** 53,), ([-(2 ** 53)], [10 ** 16]))],
    "empty": [],
    "percent": [(("a%s", "100%", 0.5), (["%d", "x%%"], [1.0, 2.0])),
                ((), (["%(k)s", "%"], ["%.17g", "50%"], [3, 4]))],
    "empty-block": [((1, 0.2), ([], [])), ((2, 0.4), ([0.0], [1.5])), ((3, 0.6), ([], []))],
    "shared-column": ([((k, 0.2 * k), (_col(_XS), [math.sin(k * x) for x in _XS]))
                       for k in (1, 2, 3)],
                      [(k, 0.2 * k, x, math.sin(k * x)) for k in (1, 2, 3) for x in _XS]),
    "many-columns": [((), (_TS, [t / 3 for t in _TS], [t / 7 for t in _TS],
                           [t / 3 - t / 7 for t in _TS]))],
    "longer-than-chunk": [(("a%s", 0.5), (_LONG, [-v for v in _LONG])),
                          (("b",), (_LONG[:3],))],
}


@pytest.mark.parametrize("case", list(_CSV_BLOCKS))
def test_write_csv_bytes_equal_per_value_format(case, tmp_path):
    blocks = _CSV_BLOCKS[case]
    blocks, rows = blocks if isinstance(blocks, tuple) else (blocks, _block_rows(blocks))
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 2)]
    out = tmp_path / "x.csv"
    _write_csv(out, header, blocks)
    assert out.read_bytes() == _old_csv(header, rows).encode()


def _row_writer(path, header, blocks):
    # each block expanded into rows and every value formatted on its own
    with open(path, "w", newline="") as fh:
        fh.write(_old_csv(header, _block_rows(blocks)))


@pytest.mark.parametrize("command", [*(f"figures fig{k}" for k in range(1, 9)),
                                     "figures fig4 --n 2000", "limiting-curve --grid 501",
                                     "fourier --n-terms 200", "pseries scan"])
def test_block_writer_gives_the_bytes_of_a_row_writer(command, tmp_path, monkeypatch,
                                                       capsys):
    # each CSV command runs twice in one process: with the shipped block
    # writer, which formats a shared column or a block's lead once, and with
    # a row writer (the shared columns reach it unformatted)
    import nel.cli

    blocks, rows = tmp_path / "blocks.csv", tmp_path / "rows.csv"
    assert run_cli([*command.split(), "--out", str(blocks)], capsys)[0] == 0
    monkeypatch.setattr(nel.cli, "_write_csv", _row_writer)
    monkeypatch.setattr(nel.cli, "_col", list)
    assert run_cli([*command.split(), "--out", str(rows)], capsys)[0] == 0
    assert rows.read_bytes() == blocks.read_bytes()


def test_write_csv_streams_an_iterator(tmp_path):
    taus = [i / 7 for i in range(100)]
    rhos = [math.sqrt(t) * (-1) ** i for i, t in enumerate(taus)]
    out = tmp_path / "x.csv"
    blocks = (((), (taus[i:i + 10], rhos[i:i + 10])) for i in range(0, 100, 10))
    _write_csv(out, ["tau", "rho"], blocks)
    assert out.read_bytes() == _old_csv(["tau", "rho"], zip(taus, rhos)).encode()
    _write_csv(out, ["tau", "rho"], iter([]))
    assert out.read_bytes() == b"tau,rho\n"


def test_write_csv_writes_a_long_block_in_bounded_chunks(tmp_path, monkeypatch):
    # fourier --grid reaches 10^6 rows: each write holds at most _CHUNK lines
    import builtins

    import nel.cli

    lines = []

    class Recorded:
        def __init__(self, *args, **kwargs):
            self.fh = builtins.open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            lines.append(text.count("\n"))
            return self.fh.write(text)

    monkeypatch.setattr(nel.cli, "open", Recorded, raising=False)
    n = 10 ** 6
    out = tmp_path / "x.csv"
    _write_csv(out, ["k", "i", "x"], [(("k",), (range(n), [0.5] * n))])
    assert lines == [1] + [_CHUNK] * (n // _CHUNK) + [n % _CHUNK]
    assert out.read_text() == "k,i,x\n" + "".join(["k,%d,0.5\n" % i for i in range(n)])


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


def test_painleve_eigen_at_the_count_cap(painleve_eigs12, tmp_path, capsys):
    # the CLI's largest count: 20 increasing eigenvalues, the first twelve
    # the library's and within 1e-6 of criterion 9's list, its 6 decimals
    out = tmp_path / "peig20.json"
    code, _, _ = run_cli(["painleve", "eigen", "--count", "20", "--out", str(out)], capsys)
    assert code == 0
    eigs = json.loads(out.read_text())["eigenvalues"]
    assert len(eigs) == 20 and all(a < b for a, b in zip(eigs, eigs[1:]))
    assert [e.hex() for e in eigs[:12]] == [e.hex() for e in painleve_eigs12[0]]
    assert max(abs(e - r) for e, r in zip(eigs, PAINLEVE_EIGS)) < 1e-6


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


def test_fig1_rows_up_to_each_stop_are_those_of_the_full_span(tmp_path, monkeypatch, capsys):
    # each curve's rows with x at or before its stop are, byte for byte,
    # the rows a full-span run to x = 24 writes; only the rows beyond move,
    # and there they meet a tight run; a second run writes the same bytes
    import nel.cosine
    from nel.cosine import rhs_unscaled
    from nel.ode import IntegratorConfig, integrate

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
    assert {line.split(",")[2] for line in lines[1201::1201]} == {"24"}
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
    # beyond every stop (x >= 12) within 1e-13 of a rel 1e-14 run
    tight = IntegratorConfig(rel_tol=1e-14, abs_tol=1e-16)
    for k in (1, 25, 50):
        x, y = np.array([[float(v) for v in line.split(",")[2:]]
                         for line in lines[1 + (k - 1) * 1201:1 + k * 1201]]).T
        beyond = x >= 12.0
        ref = integrate(rhs_unscaled, 0.0, 0.2 * k, 24.0, tight)
        assert np.max(np.abs(y[beyond] / ref.sample(x[beyond]) - 1.0)) <= 1e-13, k
    again = tmp_path / "again.csv"
    assert run_cli(["figures", "fig1", "--out", str(again)], capsys)[0] == 0
    assert again.read_bytes() == out.read_bytes()


# explicit ids, the ones pytest built from argv and message, so that rewording
# a message renames no test
@pytest.mark.parametrize("argv, says", [
    pytest.param(["fig1", "--n", "5"], "unrecognized arguments: --n 5",
                 id="argv0-unrecognized arguments: --n 5"),
    pytest.param(["fig2", "--n", "5"], "unrecognized arguments: --n 5",
                 id="argv1-unrecognized arguments: --n 5"),
    pytest.param(["fig5", "--n", "80"], "unrecognized arguments: --n 80",
                 id="argv2-unrecognized arguments: --n 80"),
    pytest.param(["fig1", "--step", "0.01"], "unrecognized arguments: --step 0.01",
                 id="argv3-unrecognized arguments: --step 0.01"),
    pytest.param(["fig4", "--step", "0.01"], "unrecognized arguments: --step 0.01",
                 id="argv4-unrecognized arguments: --step 0.01"),
    pytest.param(["fig7", "--n", "3", "--step", "0.01"],
                 "unrecognized arguments: --n 3 --step 0.01",
                 id="argv5-unrecognized arguments: --n 3 --step 0.01"),
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


@pytest.mark.parametrize("argv, flag", [
    (["painleve", "fate", "--count", "5"], "--count"),
    (["painleve", "fate", "--x-min", "-3"], "--x-min"),
    (["painleve", "eigen", "--a", "1"], "--a"),
    (["painleve", "eigen", "--x-min", "-3"], "--x-min"),
    (["painleve", "envelope", "--a", "1", "--count", "5"], "--count"),
    (["pseries", "rho", "--tau", "0:1:0.1"], "--tau"),
    # no flag is taken for a longer one it abbreviates: rho reads --tau-value
    (["pseries", "rho", "--tau", "0.3"], "--tau"),
    (["pseries", "scan", "--tau-value", "0.3"], "--tau-value"),
    (["pseries", "roots", "--tau", "0:0.1:0.05"], "--tau"),
    (["figures", "fig1", "--n", "5"], "--n"),
    (["figures", "fig4", "--step", "0.01"], "--step"),
    (["eigen", "--n", "1", "--method", "backward", "--tol", "1e-9"], "--tol"),
])
def test_a_task_refuses_a_flag_only_another_task_reads(argv, flag, tmp_path, monkeypatch,
                                                       capsys):
    # each task parses its own flags: any other is refused before any work,
    # and no data file or manifest is written
    import nel.cosine
    import nel.painleve
    import nel.pseries
    import nel.separatrix

    calls = []
    for mod, name in ((nel.painleve, "classify_fate"), (nel.painleve, "painleve_eigenvalues"),
                      (nel.painleve, "integrate_with_poles"), (nel.pseries, "rho_n"),
                      (nel.pseries, "tau_scan"), (nel.pseries, "partial_sum_roots"),
                      (nel.cosine, "forward_values"), (nel.separatrix, "scaled_separatrix"),
                      (nel.separatrix, "trace_separatrix_backward")):
        monkeypatch.setattr(mod, name, lambda *a, _n=name, **k: calls.append(_n))
    code, stdout, err = run_cli([*argv, "--out", str(tmp_path / "x.out")], capsys)
    assert (code, stdout) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "UsageError" and flag in error["message"]
    assert calls == [] and list(tmp_path.iterdir()) == []


_TASK_FLAGS = {
    "eigen": "--n --method --tol --out",
    **{f"figures fig{k}": "--out" for k in (1, 2, 3, 5, 6, 7)},
    "figures fig4": "--out --n",
    "figures fig8": "--out --n --step",
    "limiting-curve": "--grid --out",
    "extrapolate": "--target --values --indices --stages --count --out",
    "painleve eigen": "--count --y0 --out",
    "painleve fate": "--a --y0 --out",
    "painleve envelope": "--a --y0 --x-min --out",
    "pseries scan": "--n --tau --out",
    "pseries rho": "--n --tau-value --out",
    "pseries roots": "--n --tau-value --out",
    "fourier": "--n-terms --grid --out",
    "run": "--preset --out-dir",
}


@pytest.mark.parametrize("task", list(_TASK_FLAGS))
def test_every_task_help_lists_only_its_flags(task, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*task.split(), "--help"])
    assert exc.value.code == 0
    listed = re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out)
    assert set(listed) == {"--help", *_TASK_FLAGS[task].split()}


_FIGURE_DEFAULTS = {4: {"n": 10000}, 8: {"n": 50, "step": 0.0005}}
_FIGURE_CASES = [pytest.param(["figures", f"fig{k}", "--out", "x.csv"],
                               {"figure": f"fig{k}", **_FIGURE_DEFAULTS.get(k, {})},
                               ["x.csv"], id=f"figures-fig{k}") for k in range(1, 9)]


@pytest.mark.parametrize("argv, params, outputs", [
    pytest.param(["eigen", "--n", "1:2", "--out", "x.json"],
                 {"n": "1:2", "method": "both", "tol": 1e-10}, ["x.json"], id="eigen"),
    pytest.param(["eigen", "--n", "1:2", "--method", "backward", "--out", "x.json"],
                 {"n": "1:2", "method": "backward"}, ["x.json"], id="eigen-backward"),
    *_FIGURE_CASES,
    pytest.param(["limiting-curve", "--grid", "21", "--out", "x.csv"], {"grid": 21}, ["x.csv"],
                 id="limiting-curve"),
    pytest.param(["extrapolate", "--values", "4,3.5,3.25", "--indices", "1,2,4", "--out", "x.json"],
                 {"values": "4,3.5,3.25", "indices": "1,2,4", "stages": 2}, ["x.json"],
                 id="extrapolate-raw"),
    pytest.param(["extrapolate", "--target", "a-constant", "--indices", "1,2", "--out", "x.json"],
                 {"target": "a-constant", "indices": "1,2", "stages": 1}, ["x.json"],
                 id="extrapolate-a-constant"),
    pytest.param(["extrapolate", "--target", "a-constant", "--out", "x.json"],
                 {"target": "a-constant", "indices": "125,250,500,1000,2000", "stages": 4},
                 ["x.json"], id="extrapolate-a-constant-defaults"),
    pytest.param(["extrapolate", "--target", "painleve-c", "--out", "x.json"],
                 {"target": "painleve-c", "count": 12, "stages": 4}, ["x.json"],
                 id="extrapolate-painleve-c"),
    pytest.param(["painleve", "eigen", "--out", "x.json"],
                 {"task": "eigen", "count": 12, "y0": 1.0}, ["x.json"], id="painleve-eigen"),
    pytest.param(["painleve", "fate", "--out", "x.json"],
                 {"task": "fate", "a": 0.0, "y0": 1.0}, ["x.json"], id="painleve-fate"),
    pytest.param(["painleve", "envelope", "--a", "1.7", "--out", "x.json"],
                 {"task": "envelope", "a": 1.7, "y0": 1.0, "x_min": -80.0}, ["x.json"],
                 id="painleve-envelope"),
    pytest.param(["pseries", "scan", "--out", "x.csv"],
                 {"task": "scan", "n": 50, "tau": "0:1:0.0005"}, ["x.csv"], id="pseries-scan"),
    pytest.param(["pseries", "rho"], None, [], id="pseries-rho"),
    pytest.param(["pseries", "rho", "--out", "x.json"],
                 {"task": "rho", "n": 50, "tau_value": 0.25}, ["x.json"], id="pseries-rho-out"),
    pytest.param(["pseries", "roots", "--n", "10", "--out", "x.json"],
                 {"task": "roots", "n": 10, "tau_value": 0.25}, ["x.json"], id="pseries-roots"),
    pytest.param(["fourier", "--n-terms", "10", "--grid", "11", "--out", "x.csv"],
                 {"n_terms": 10, "grid": 11}, ["x.csv"], id="fourier"),
    pytest.param(["run", "--out-dir", "q"], {"preset": "quick"},
                 ["q/eigenvalues.json", "q/limit_curve.csv", "q/fourier.csv"], id="run-quick"),
    pytest.param(["run", "--preset", "figures", "--out-dir", "q"], {"preset": "figures"},
                 [f"q/fig{k}.csv" for k in range(1, 9)], id="run-figures"),
])
def test_manifests_record_only_flags_read(argv, params, outputs, tmp_path, monkeypatch, capsys):
    # main writes one manifest per command: beside --out, or run.manifest.json
    # in --out-dir, and none without either.  Its parameters are the flags the
    # task read, with the defaults it used (fig4 and fig8 their n, fig8 its
    # step, extrapolate its stages and a-constant its indices, painleve eigen
    # its count); the summary's last line lists the outputs
    import nel.painleve
    import nel.pseries
    from nel import __version__

    scan = SimpleNamespace(taus=[0.0], rhos=[1.0], maxima=[], failures=[],
                           reflection_gap=0.0, half_shift_gap=0.0)
    monkeypatch.setattr(nel.pseries, "tau_scan", lambda lo, hi, step, n: scan)
    monkeypatch.setattr(nel.painleve, "painleve_eigenvalues",
                        lambda count, **k: [PAINLEVE_C * n ** 0.6 for n in range(1, count + 1)])
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(stdout.splitlines()[-1])["outputs"] == outputs
    written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*.manifest.json"))
    if params is None:
        assert written == []
        return
    top = "q/run.manifest.json" if argv[0] == "run" else outputs[0] + ".manifest.json"
    nested = [o + ".manifest.json" for o in outputs] if argv[0] == "run" else []
    assert written == sorted([top, *nested])
    manifest = json.loads((tmp_path / top).read_text())
    assert list(manifest) == ["subcommand", "parameters", "version", "wall_time_s", "outputs"]
    assert manifest["parameters"] == {"subcommand": argv[0], **params}
    assert (manifest["subcommand"], manifest["version"], manifest["outputs"]) == \
        (argv[0], __version__, outputs)
    assert manifest["wall_time_s"] >= 0


def test_fig7_oscillatory_segment_reaches_window_end(tmp_path, capsys):
    # index grid x0 - i*0.01: no drift, so the x = -40 endpoint is written
    out = tmp_path / "fig7.csv"
    code, _, _ = run_cli(["figures", "fig7", "--out", str(out)], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    osc = [r for r in rows if r[0] == "oscillatory"]
    assert osc[0][3] == "0"
    assert float(osc[-1][3]) == -40.0


def test_fig2_curves_end_at_x_20(tmp_path, capsys):
    # fig2 starts its traces at x = 21 and reads every curve out to x = 20
    out = tmp_path / "fig2.csv"
    code, _, _ = run_cli(["figures", "fig2", "--out", str(out)], capsys)
    assert code == 0
    x_end = {}
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            n, x = int(row["n"]), float(row["x"])
            x_end[n] = max(x, x_end.get(n, x))
    assert x_end == {n: 20.0 for n in range(-3, 7)}


def test_fig4_at_the_index_cap_reads_each_steps_quartic(tmp_path, monkeypatch, capsys,
                                                        deadline):
    # fig4 at n = 100000 reads the longest trace the CLI builds (725,908
    # steps) and keeps the records of only the steps that hold its points;
    # each z must equal the reference read of the kept record its abscissa
    # falls in, and every kept record must hold one
    import nel.separatrix
    from nel.separatrix import scaling_factor

    n, traces = 100000, []
    trace = nel.separatrix.trace_separatrix_backward
    monkeypatch.setattr(nel.separatrix, "trace_separatrix_backward",
                        lambda *a, **k: traces.append(trace(*a, **k)) or traces[-1])
    out = tmp_path / "fig4.csv"
    with deadline(120):
        code, _, _ = run_cli(["figures", "fig4", "--n", str(n), "--out", str(out)], capsys)
    assert code == 0
    (traj,), s = traces, scaling_factor(n)
    assert traj.step_count == 725908
    rec = np.frombuffer(traj._dense).reshape(-1, 10)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    x = [s * float(r[0]) for r in rows]
    # the kept record each abscissa falls in; x decreases along the trace
    i = (np.searchsorted(-rec[:, 0], -np.array(x), side="right") - 1).tolist()
    z = [quartic_read(traj, xj, ij)[0][0] / s for xj, ij in zip(x, i)]
    assert len(rows) == 2001
    assert len(rec) <= 2001 and sorted(set(i)) == list(range(len(rec)))
    assert all(rec[ij, 1] <= xj <= rec[ij, 0] for xj, ij in zip(x, i))
    assert [r[1] for r in rows] == ["%.17g" % v for v in z]


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


def _written(field: str) -> bool:
    """A label, an int as str(int), or a float at 17 significant digits."""
    try:
        value = float(field)
    except ValueError:
        return True
    try:
        if field == str(int(field)):
            return True
    except ValueError:
        pass
    return field == format(value, ".17g")


def test_run_figures_preset_writes_all_eight_datasets(tmp_path, capsys):
    out = tmp_path / "figs"
    code, _, _ = run_cli(["run", "--preset", "figures", "--out-dir", str(out)], capsys)
    assert code == 0
    names = [f"fig{k}.csv" for k in range(1, 9)]
    listed = json.loads((out / "run.manifest.json").read_text())["outputs"]
    assert sorted(Path(p).name for p in listed) == sorted(names)
    for name in names:
        lines = (out / name).read_text().splitlines()
        assert len(lines) > 1, name
        assert [f for row in lines[1:] for f in row.split(",") if not _written(f)] == [], name


@pytest.mark.parametrize("task", ["scan", "roots"])
def test_eigenvalue_failure_surfaced_as_json(task, tmp_path, monkeypatch, capsys):
    # LAPACK's eigenvalue iteration does not converge: the root solver has no
    # fallback, so the command ends in a typed error and writes no data file
    def unconverged(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", unconverged)
    out = tmp_path / "x.out"
    grid = ["--tau", "0:0.1:0.05"] if task == "scan" else []
    code, _, err = run_cli(["pseries", task, "--n", "10", *grid, "--out", str(out)], capsys)
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


# -- one process against fresh processes --------------------------------------


def test_parser_is_built_once():
    from nel.cli import _build_parser

    assert _build_parser() is _build_parser()


def _python(*args, cwd=None) -> subprocess.CompletedProcess:
    """python args in a fresh interpreter that imports this nel."""
    src = os.path.dirname(os.path.dirname(nel.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=60)


def test_parser_is_not_built_at_import():
    done = _python("-c", "import nel.cli; print(nel.cli._build_parser.cache_info().currsize)")
    assert (done.returncode, done.stdout) == (0, "0\n")


@pytest.mark.parametrize("argv, code, error", [
    (["painleve", "envelope"], 2, "UsageError"),
    (["painleve", "fate", "--a", "100"], 1, "Undecided"),
])
def test_a_process_exits_with_the_code_main_returns(argv, code, error, tmp_path):
    done = _python("-m", "nel.cli", *argv, "--out", "x.json", cwd=tmp_path)
    assert (done.returncode, done.stdout, json.loads(done.stderr)["error"]["type"]) == \
        (code, "", error)
    assert list(tmp_path.iterdir()) == []


_IN_ONE_PROCESS = """
import sys
from nel.cli import main
codes = [main(c.split()) for c in sys.argv[1:]]
sys.exit(0 if codes == [0] * len(codes) else f"exit codes {codes}")
"""


def _tree(root: Path) -> dict:
    # every file's bytes, a manifest's without its wall time
    files = {}
    for p in sorted(root.rglob("*")):
        if p.name.endswith(".manifest.json"):
            m = json.loads(p.read_text())
            del m["wall_time_s"]
            files[str(p.relative_to(root))] = json.dumps(m)
        elif p.is_file():
            files[str(p.relative_to(root))] = p.read_bytes()
    return files


def test_one_process_gives_the_bytes_of_fresh_processes(tmp_path):
    # the benchmark worker sends each request as one main call in a
    # long-lived process; every data file, manifest and stdout line must
    # equal those of separate nel runs (manifests without their wall times).
    # run calls main once per subcommand, so it checks the nested calls too
    cmds = ["eigen --n 5 --method backward --out eig5.json",
            "eigen --n 3 --method bisect --out b.json",
            "pseries rho",
            "pseries roots --n 21 --tau-value 0.378 --out r.json",
            "pseries scan --tau 0.37:0.39:0.0005 --n 50 --out s.csv",
            "painleve fate --a 2.0 --out fate.json",
            "painleve envelope --a 1.7 --out env.json",
            "figures fig1 --out fig1.csv",
            "figures fig5 --out fig5.csv",
            "figures fig7 --out fig7.csv",
            "limiting-curve --grid 501 --out z.csv",
            "run --preset quick --out-dir q"]
    fresh, one = tmp_path / "fresh", tmp_path / "one"
    fresh.mkdir()
    one.mkdir()
    stdout = ""
    for c in cmds:
        done = _python("-m", "nel.cli", *c.split(), cwd=fresh)
        assert done.returncode == 0, done.stderr
        stdout += done.stdout
    (fresh / "stdout.txt").write_text(stdout)
    done = _python("-c", _IN_ONE_PROCESS, *cmds, cwd=one)
    assert done.returncode == 0, done.stderr
    (one / "stdout.txt").write_text(done.stdout)
    assert '"rho"' in done.stdout
    assert (one / "q" / "run.manifest.json").stat().st_size > 0
    assert _tree(fresh) == _tree(one)


def test_no_value_carries_over_between_calls(tmp_path, monkeypatch, capsys):
    # fig4 --n 3000, then fig8 with its own defaults, degree 50 at step 0.0005
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
    ["pseries", "rho", "--n", "501"],                       # each refused by the parse
    ["pseries", "rho", "--tau-value", "0.4", "--n", "501"],
    ["pseries", "rho", "--tau-value", "0.4", "--n", "0"],
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
