import json
import os

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


@pytest.mark.parametrize("argv", [
    ["pseries", "scan", "--n", "12", "--tau", "0:0.2:0.01"],
    ["figures", "fig1"],     # the trajectory fan, the pool's one user
], ids=["pseries-scan", "fig1"])
def test_worker_pool_does_not_change_output(argv, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    old = os.environ.get("NEL_THREADS")
    try:
        os.environ["NEL_THREADS"] = "1"
        assert run_cli([*argv, "--out", str(a)], capsys)[0] == 0
        os.environ["NEL_THREADS"] = "2"
        assert run_cli([*argv, "--out", str(b)], capsys)[0] == 0
    finally:
        if old is None:
            os.environ.pop("NEL_THREADS", None)
        else:
            os.environ["NEL_THREADS"] = old
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


def test_painleve_fate_subcommand(tmp_path, capsys):
    out = tmp_path / "fate.json"
    code, _, _ = run_cli(["painleve", "fate", "--a", "1.0", "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["lock"] == "oscillatory"
    assert payload["pole_count"] == 0


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
])
def test_bad_input_is_usage_error(argv, tmp_path, capsys):
    code, _, err = run_cli([*argv, "--out", str(tmp_path / "x.out")], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UsageError"


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


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UsageError"


def test_computational_error_surfaced_as_json(tmp_path, capsys):
    # n=0 has no bisection bracket; the separatrix module raises ValueError
    code, _, err = run_cli(["eigen", "--n", "0:0", "--method", "bisect",
                            "--out", str(tmp_path / "x.json")], capsys)
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]["module"].endswith("separatrix") or \
        payload["error"]["type"] == "ValueError"


def test_fig1_task_rows():
    from nel.cli import _fig1_task

    rows = _fig1_task(3)
    assert rows[0] == (3, 0.6000000000000001, 0.0, 0.6000000000000001)
    assert len(rows) == 1201
    assert abs(rows[-1][2] - 24.0) < 1e-9


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
