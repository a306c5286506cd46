import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from royroot.cli import main
from royroot.finite_cdf import ProblemDims, SpikeParam, cdf_lambda_max
from royroot.roc import calibrate_threshold


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


class TestCalibrate:
    def test_scalar_case(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--m", "1", "--n", "1",
                               "--p", "1", "--pf", "0.5")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p_false_alarm", "threshold"]
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-9)

    def test_threshold_matches_api_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--m", "2", "--n", "3",
                               "--p", "4", "--pf", "0.1")
        assert code == 0
        _, rows = parse_csv(out)
        # 17 significant digits round-trip the double exactly
        assert float(rows[0][1]) == calibrate_threshold(ProblemDims(2, 3, 4), 0.1)


class TestRocCommand:
    def test_monotone_rows(self, capsys):
        code, out, _ = run_cli(capsys, "roc", "--m", "5", "--n", "8", "--p", "10",
                               "--snr", "5dB", "--grid", "0.001:0.999:200:log")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p_false_alarm", "p_detection", "threshold"]
        assert len(rows) == 200
        pd_col = [float(r[1]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(pd_col, pd_col[1:]))

    def test_byte_identical_reruns(self, capsys):
        args = ("roc", "--m", "2", "--n", "4", "--p", "5",
                "--snr", "3.0", "--grid", "0.05:0.95:10:linear")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestCdfCommand:
    def test_lambda_scale(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--m", "2", "--n", "4", "--p", "5",
                               "--snr", "1.0", "--grid", "0.5:8:4:linear")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "cdf"]
        d = ProblemDims(2, 4, 5)
        for r in rows:
            assert float(r[1]) == cdf_lambda_max(d, SpikeParam(1.0), float(r[0]))

    def test_statistic_scale(self, capsys):
        _, out_stat, _ = run_cli(capsys, "cdf", "--m", "2", "--n", "4", "--p", "8",
                                 "--snr", "1.0", "--grid", "0.5:4:4:linear",
                                 "--statistic")
        _, out_lam, _ = run_cli(capsys, "cdf", "--m", "2", "--n", "4", "--p", "8",
                                "--snr", "1.0", "--grid", "1:8:4:linear")
        _, rows_stat = parse_csv(out_stat)
        _, rows_lam = parse_csv(out_lam)
        for rs, rl in zip(rows_stat, rows_lam):
            assert float(rs[1]) == pytest.approx(float(rl[1]), rel=1e-14)

    def test_db_snr_parses(self, capsys):
        code, out, _ = run_cli(capsys, "cdf", "--m", "3", "--n", "3", "--p", "5",
                               "--snr", "5dB", "--grid", "1:2:2:linear")
        assert code == 0


class TestPstarCommand:
    def test_extras_and_default_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "pstar", "--nu", "0.25", "--snr", "10",
                               "--pf", "0.3")
        assert code == 0
        extras = dict(l[2:].split(" = ") for l in out.splitlines()
                      if l.startswith("# "))
        assert {"pstar_lower", "pstar_upper", "pstar_approx",
                "pstar_continuous", "pstar_integer"} <= set(extras)
        assert float(extras["pstar_lower"]) < float(extras["pstar_upper"])
        header, rows = parse_csv(out)
        assert header == ["p", "p_detection"]
        assert len(rows) >= 10


class TestAsymptoticCommand:
    def test_fixed_alpha_cdf(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotic", "--fixed-alpha", "--m", "10",
                               "--n", "11", "--p", "12", "--snr", "3.16",
                               "--grid", "0.5:10:5:linear")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "finite_cdf", "limit_cdf"]
        for r in rows:
            assert abs(float(r[1]) - float(r[2])) < 0.5

    def test_scaled_snr_roc(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotic", "--scaled-snr", "--m", "25",
                               "--c", "1.0", "--theta", "1.0", "--mode", "roc",
                               "--grid", "0.1:0.9:5:linear")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["p_false_alarm", "p_detection_finite", "p_detection_limit"]
        for r in rows:
            assert abs(float(r[1]) - float(r[2])) < 0.05

    def test_fixed_alpha_roc_keeps_grid_order(self, capsys):
        from royroot.roc import detection_probability
        code, out, _ = run_cli(capsys, "asymptotic", "--fixed-alpha", "--m", "6",
                               "--n", "8", "--p", "9", "--snr", "3", "--mode", "roc",
                               "--grid", "0.9:0.05:12:linear")
        assert code == 0
        _, rows = parse_csv(out)
        d = ProblemDims(6, 8, 9)
        pfs = [float(r[0]) for r in rows]
        assert pfs == sorted(pfs, reverse=True) and len(pfs) == 12
        for r in rows:
            pf = float(r[0])
            assert float(r[1]) == detection_probability(d, 3.0, calibrate_threshold(d, pf))
            assert float(r[2]) == pf

    def test_requires_regime_flag(self, capsys):
        code, _, err = run_cli(capsys, "asymptotic", "--grid", "1:2:2:linear")
        assert code == 2
        assert "fixed-alpha" in err or "scaled-snr" in err

    def test_fixed_alpha_requires_dims(self, capsys):
        code, _, err = run_cli(capsys, "asymptotic", "--fixed-alpha",
                               "--grid", "1:2:2:linear")
        assert code == 2
        assert "--m" in err


class TestMcValidate:
    ARGS = ("mc-validate", "--m", "2", "--n", "4", "--p", "4", "--snr", "1",
            "--trials", "20000", "--seed", "7", "--tolerance", "0.02")

    def test_passes_and_is_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, *self.ARGS)
        code2, out2, _ = run_cli(capsys, *self.ARGS, "--workers", "4")
        assert code1 == 0 and code2 == 0
        # worker count must not leak into the emitted numbers
        ks1 = parse_csv(out1)[1][0][0]
        ks2 = parse_csv(out2)[1][0][0]
        assert ks1 == ks2

    def test_fails_with_tiny_tolerance(self, capsys):
        args = tuple(self.ARGS[:-2])  # strip the tolerance pair
        code, out, _ = run_cli(capsys, *args, "--tolerance", "1e-9")
        assert code == 1
        assert "fail" in out

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tolerance):
        # a NaN or non-positive tolerance used to fail every run with exit 1
        code, out, err = run_cli(capsys, *self.ARGS[:-2], "--tolerance", tolerance)
        assert code == 2 and out == ""
        assert f"tolerance must be finite and > 0, got {tolerance}" in err

    def test_unwritable_dump_is_a_usage_error_before_sampling(self, capsys, tmp_path,
                                                              monkeypatch):
        import royroot.monte_carlo as mc
        monkeypatch.setattr(mc, "sample_lambda_max", lambda config: pytest.fail("sampled"))
        target = tmp_path / "missing" / "samples.txt"
        code, out, err = run_cli(capsys, *self.ARGS, "--dump", str(target))
        assert code == 2 and out == ""
        assert err == f"royroot: cannot write --dump {str(target)!r}: No such file or directory\n"

    def test_dump_file(self, capsys, tmp_path):
        target = tmp_path / "samples.txt"
        code, _, _ = run_cli(capsys, "mc-validate", "--m", "1", "--n", "2", "--p", "2",
                             "--snr", "0.5", "--trials", "500", "--seed", "3",
                             "--tolerance", "0.1", "--dump", str(target))
        assert code == 0
        values = [float(line) for line in target.read_text().splitlines()]
        assert len(values) == 500
        assert values == sorted(values)


class TestSlopeCommand:
    def test_value_matches_api(self, capsys):
        from royroot.roc import low_snr_slope
        code, out, _ = run_cli(capsys, "slope", "--m", "10", "--n", "10", "--p", "15",
                               "--pf", "0.1")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == low_snr_slope(ProblemDims(10, 10, 15), 0.1)


class TestJsonOutput:
    @pytest.fixture()
    def schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        from importlib.resources import files
        doc = json.loads(files("royroot").joinpath("output_schema.json").read_text())
        return lambda payload: jsonschema.validate(payload, doc)

    @pytest.mark.parametrize("argv", [
        ("calibrate", "--m", "2", "--n", "3", "--p", "4", "--pf", "0.2"),
        ("roc", "--m", "2", "--n", "4", "--p", "5", "--snr", "2",
         "--grid", "0.1:0.9:5:linear"),
        ("pstar", "--nu", "0.5", "--snr", "2", "--pf", "0.1"),
        ("slope", "--m", "3", "--n", "5", "--p", "6", "--pf", "0.1"),
        ("mc-validate", "--m", "1", "--n", "1", "--p", "3", "--snr", "0",
         "--trials", "1000", "--seed", "1", "--tolerance", "0.1"),
    ])
    def test_validates_against_schema(self, capsys, schema, argv):
        code, out, _ = run_cli(capsys, "--format", "json", *argv)
        assert code == 0
        payload = json.loads(out)
        schema(payload)
        assert len(payload["rows"][0]) == len(payload["columns"])


class TestUsageErrors:
    def test_bad_grid(self, capsys):
        code, _, _ = run_cli(capsys, "cdf", "--m", "2", "--n", "4", "--p", "5",
                             "--snr", "1", "--grid", "nonsense")
        assert code == 2

    def test_missing_required(self, capsys):
        code, _, _ = run_cli(capsys, "roc", "--m", "2", "--n", "4", "--p", "5")
        assert code == 2

    def test_envelope_violation_reports_cap(self, capsys):
        code, _, err = run_cli(capsys, "cdf", "--m", "100", "--n", "100", "--p", "100",
                               "--snr", "1", "--grid", "1:2:2:linear")
        assert code == 2
        assert "64" in err

    def test_negative_linear_snr(self, capsys):
        code, _, _ = run_cli(capsys, "cdf", "--m", "2", "--n", "4", "--p", "5",
                             "--snr", "-1", "--grid", "1:2:2:linear")
        assert code == 2

    @pytest.mark.parametrize("snr", ["inf", "infdB"])
    def test_infinite_snr(self, capsys, snr):
        code, out, err = run_cli(capsys, "cdf", "--m", "2", "--n", "4", "--p", "5",
                                 "--snr", snr, "--grid", "1:2:2:linear")
        assert code == 2 and out == ""
        assert "eta must be finite" in err

    @pytest.mark.parametrize("flag,value", [("--snr", "inf"), ("--snr", "infdB"), ("--nu", "inf")])
    def test_pstar_rejects_infinite_input(self, capsys, flag, value):
        argv = {"--nu": "0.5", "--snr": "10", "--pf": "0.1", flag: value}
        code, out, err = run_cli(capsys, "pstar", *(a for item in argv.items() for a in item))
        assert code == 2 and out == ""
        assert "finite" in err


def test_workers_env_default(monkeypatch, capsys):
    monkeypatch.setenv("ROYROOT_WORKERS", "3")
    from royroot.cli import _build_parser
    args = _build_parser().parse_args(
        ["mc-validate", "--m", "1", "--n", "1", "--p", "2", "--snr", "0",
         "--trials", "10", "--seed", "1"])
    assert args.workers == 3


def test_malformed_workers_env_is_a_usage_error_only_for_mc_validate(monkeypatch, capsys):
    monkeypatch.setenv("ROYROOT_WORKERS", "abc")
    code, out, _ = run_cli(capsys, "calibrate", "--m", "1", "--n", "1", "--p", "1",
                           "--pf", "0.5")
    assert code == 0 and "threshold" in out
    code, _, err = run_cli(capsys, "mc-validate", "--m", "1", "--n", "1", "--p", "2",
                           "--snr", "0", "--trials", "10", "--seed", "1")
    assert code == 2 and "--workers" in err


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "royroot.cli", "calibrate",
                          "--m", "1", "--n", "1", "--p", "1", "--pf", "0.5"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "threshold" in out.stdout


# Outputs that must stay byte-identical: the numbers come from the exact CDFs,
# the p* closed forms and the Monte Carlo sampler, none of which calibrates a
# threshold.  Each file under tests/data/ is the stdout of `royroot <argv>`.
GOLDEN = {
    "cdf_245_lambda": ["cdf", "--m", "2", "--n", "4", "--p", "5", "--snr", "1.0",
                       "--grid", "0.1:20:25:linear"],
    "cdf_245_statistic": ["cdf", "--m", "2", "--n", "4", "--p", "5", "--snr", "1.0",
                          "--grid", "0.1:20:25:log", "--statistic"],
    "cdf_5810_lambda": ["cdf", "--m", "5", "--n", "8", "--p", "10", "--snr", "5dB",
                        "--grid", "0.5:40:25:log"],
    "cdf_5810_statistic": ["cdf", "--m", "5", "--n", "8", "--p", "10", "--snr", "5dB",
                           "--grid", "0.5:40:25:linear", "--statistic"],
    "cdf_41012_lambda": ["cdf", "--m", "4", "--n", "10", "--p", "12", "--snr", "0",
                         "--grid", "0.7:60:25:log"],
    "cdf_41012_statistic_json": ["--format", "json", "cdf", "--m", "4", "--n", "10",
                                 "--p", "12", "--snr", "3.0", "--grid", "0.7:60:10:log",
                                 "--statistic"],
    "asymptotic_fixed_alpha_cdf": ["asymptotic", "--fixed-alpha", "--m", "20", "--n", "21",
                                   "--p", "22", "--snr", "3.16",
                                   "--grid", "0.1:20:25:linear"],
    "asymptotic_scaled_snr_cdf": ["asymptotic", "--scaled-snr", "--m", "6", "--c", "0.5",
                                  "--theta", "1", "--grid", "0.5:20:15:log"],
    "pstar": ["pstar", "--nu", "0.5", "--snr", "10", "--pf", "0.1"],
    "mc_validate": ["mc-validate", "--m", "2", "--n", "4", "--p", "4", "--snr", "1",
                    "--trials", "4096", "--seed", "7", "--tolerance", "0.05"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_is_byte_identical_to_golden_file(capsys, name):
    code, out, _ = run_cli(capsys, *GOLDEN[name])
    assert code == 0
    golden = Path(__file__).parent / "data" / f"cli_{name}.txt"
    assert out.encode("ascii") == golden.read_bytes()


def test_import_loads_no_optional_modules():
    # `import royroot` needs numpy only; scipy alone added about 265 ms to it
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, royroot; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath', 'sympy'}))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
