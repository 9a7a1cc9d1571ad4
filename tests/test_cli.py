"""Command-line interface: output formats, determinism, config layering,
exit codes, and the self-verification suites."""

import math

import pytest

from dicke_fcs import cli
from dicke_fcs.model import ModelParams, critical_couplings
from dicke_fcs.statistics import cumulants


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


DESK_FLAGS = ["--omega0", "2", "--omega", "1", "--gamma", "1"]


def test_criticals_values(capsys):
    code, out, err = _run(capsys, ["criticals"] + DESK_FLAGS)
    assert code == 0 and err == ""
    got = {}
    for line in out.splitlines():
        for key in ("lambda1", "lambda2", "lambda3"):
            if line.startswith(f"{key} = "):
                got[key] = float(line.split("=")[1])
    crit = critical_couplings(ModelParams(2.0, 1.0, 0.0, 1.0))
    assert got["lambda1"] == crit.lambda1
    assert got["lambda2"] == crit.lambda2
    assert got["lambda3"] == crit.lambda3
    assert "undefined window" in out


def test_criticals_closed_system_note(capsys):
    code, out, _ = _run(capsys, ["criticals", "--gamma", "0"])
    assert code == 0
    assert "closed system" in out
    vals = [float(ln.split("=")[1]) for ln in out.splitlines()
            if ln.startswith("lambda")]
    assert vals[0] == vals[1] == vals[2]


def test_scan_is_byte_deterministic(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    argv = ["scan", "--quantity", "occupations", "--lambda-range",
            "0.9:1.1:21", "--lambda-units", "lambda2", "--out", str(path)]
    assert _run(capsys, argv)[0] == 0
    first = path.read_bytes()
    assert _run(capsys, argv)[0] == 0
    assert path.read_bytes() == first


def test_scan_flags_gap_window(capsys):
    code, out, _ = _run(capsys, ["scan", "--quantity", "energies",
                                 "--lambda-range", "0.9:1.1:21",
                                 "--lambda-units", "lambda2"])
    assert code == 0
    header, rows = _csv_rows(out)
    gap_col = header.index("gap")
    val_col = header.index("eps_minus")
    flags = [row[gap_col] for row in rows]
    assert flags[0] == "0" and flags[-1] == "0"
    assert "1" in flags
    for row in rows:
        if row[gap_col] == "1":
            assert row[val_col] == ""           # no spectrum inside the gap
        else:
            assert float(row[val_col]) > 0
    # the flagged window brackets [lambda1, lambda3] in lambda2 units
    crit = critical_couplings(ModelParams(0.5, 2.0, 0.0, 1.0))
    rel = [float(row[0]) / crit.lambda2 for row in rows]
    lo = min(r for r, f in zip(rel, flags) if f == "1")
    hi = max(r for r, f in zip(rel, flags) if f == "1")
    assert lo >= crit.lambda1 / crit.lambda2 - 0.011
    assert hi <= crit.lambda3 / crit.lambda2 + 0.011


def test_scan_error_column(capsys):
    code, out, _ = _run(capsys, ["scan", "--quantity", "fano",
                                 "--lambda-range", "0:0.4:2"] + DESK_FLAGS)
    assert code == 0
    header, rows = _csv_rows(out)
    err_col = header.index("error")
    assert rows[0][err_col] == "DegenerateDenominator"
    assert rows[0][header.index("fano_1")] == ""
    assert rows[1][err_col] == ""
    assert float(rows[1][header.index("fano_1")]) == 1.0


def test_scan_lambda2_units(capsys):
    code, out, _ = _run(capsys, ["scan", "--quantity", "energies",
                                 "--lambda-range", "2:3:2",
                                 "--lambda-units", "lambda2"])
    assert code == 0
    header, rows = _csv_rows(out)
    rel_col = header.index("lambda_over_lambda2")
    assert float(rows[0][rel_col]) == pytest.approx(2.0, rel=1e-12)
    assert float(rows[1][rel_col]) == pytest.approx(3.0, rel=1e-12)


def test_evolve_trace(capsys):
    code, out, _ = _run(capsys, ["evolve", "--lambda", "0.3", "--t-max", "10",
                                 "--samples", "5", "--jet-order", "3"]
                        + DESK_FLAGS)
    assert code == 0
    header, rows = _csv_rows(out)
    assert header[:3] == ["t", "photon_occupation", "atom_occupation"]
    assert [h for h in header if h.startswith("cumulant_")] == [
        "cumulant_1", "cumulant_2", "cumulant_3"]
    assert len(rows) == 5
    assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 10.0
    # nothing has been counted yet at t = 0
    for cell in rows[0][3:]:
        assert float(cell) == 0.0
    # occupations stay finite and positive along the trace
    for row in rows:
        assert float(row[1]) > 0 and float(row[2]) > 0


def test_evolve_slope_matches_asymptotic_rate(capsys):
    t_max = 600.0
    code, out, _ = _run(capsys, ["evolve", "--lambda", "0.3", "--t-max",
                                 str(t_max), "--samples", "3", "--jet-order",
                                 "2"] + DESK_FLAGS)
    assert code == 0
    header, rows = _csv_rows(out)
    c1 = header.index("cumulant_1")
    slope = ((float(rows[2][c1]) - float(rows[1][c1]))
             / (float(rows[2][0]) - float(rows[1][0])))
    want = cumulants(ModelParams(2.0, 1.0, 0.3, 1.0, j_atoms=1e6)).total(1)
    assert slope == pytest.approx(want, rel=1e-6)


def test_config_file_layering(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega0 = 2\nomega = 1\n# comment line\n"
                   "lambda = 0.3   # inline comment\n")
    code, out, _ = _run(capsys, ["criticals", "--config", str(cfg),
                                 "--omega0", "4"])
    assert code == 0
    header = {ln.split("=")[0].strip("# "): ln.split("=")[1].strip()
              for ln in out.splitlines() if ln.startswith("#")}
    assert float(header["omega0"]) == 4.0      # flag beats file
    assert float(header["omega"]) == 1.0       # file beats default
    assert float(header["gamma"]) == 1.0       # untouched default
    assert float(header["lam"]) == 0.3         # alias resolved


def test_config_file_rejects_bad_input(tmp_path, capsys):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("notakey = 3\n")
    code, _, err = _run(capsys, ["criticals", "--config", str(bad_key)])
    assert code == 1 and "unknown key" in err
    bad_line = tmp_path / "bad2.cfg"
    bad_line.write_text("omega0: 3\n")
    code, _, err = _run(capsys, ["criticals", "--config", str(bad_line)])
    assert code == 1 and "key = value" in err
    code, _, err = _run(capsys, ["criticals", "--config",
                                 str(tmp_path / "missing.cfg")])
    assert code == 1


def test_usage_errors_exit_one(capsys):
    cases = (
        ["scan"],                                        # missing range
        ["scan", "--lambda-range", "1:2"],               # malformed range
        ["scan", "--lambda-range", "1:2:1"],             # too few points
        ["scan", "--lambda-range", "1:2:5", "--samples", "1"],
        ["scan", "--lambda-range", "-1:2:5", "--lambda-scale", "log"],
        ["evolve"],                                      # missing lambda
        ["evolve", "--lambda", "0.3", "--t-max", "-5"] + DESK_FLAGS,
        ["scan", "--quantity", "bogus", "--lambda-range", "1:2:5"],
    )
    for argv in cases:
        code, _, err = _run(capsys, argv)
        assert code == 1, argv
        assert "error" in err


def test_gap_point_is_reported_not_swept(capsys):
    # evolve inside the undefined window is a hard error, not a silent row
    code, _, err = _run(capsys, ["evolve", "--lambda", "0.51"])
    assert code == 1 and "undefined window" in err


def test_verify_diagonalizer_suite(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "diagonalizer"])
    assert code == 0
    assert "PASS diagonalizer/closed-vs-numeric" in out
    assert "SUMMARY pass=1 fail=0" in out


def test_verify_prep_steady_suite(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "prep-steady"]
                        + DESK_FLAGS + ["--lambda", "0.3"])
    assert code == 0
    assert "FAIL" not in out
    assert "prep-steady/rate-identity" in out
    assert "PASS prep-steady/closed-vs-ode" in out


def test_verify_failure_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "_suite_diagonalizer",
        lambda cfg: [("diagonalizer/forced", False, "forced failure")])
    code, out, _ = _run(capsys, ["verify", "--suite", "diagonalizer"])
    assert code == 2
    assert "FAIL diagonalizer/forced" in out
    assert "SUMMARY pass=0 fail=1" in out


def test_header_echoes_every_field(capsys):
    code, out, _ = _run(capsys, ["criticals"])
    assert code == 0
    import dataclasses
    names = {f.name for f in dataclasses.fields(cli.RunConfig)}
    echoed = {ln[2:].split(" = ")[0] for ln in out.splitlines()
              if ln.startswith("# ")}
    assert names <= echoed
