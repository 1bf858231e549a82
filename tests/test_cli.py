"""Command line behavior: descriptors, outputs, exit codes, records."""
from __future__ import annotations

import json

import numpy as np
import pytest

from concbound.cli import RunRecord, _fmt, _make_config, main, parse_state
from concbound.optimizer import DEFAULT_SEED
from concbound.states import DensityMatrix, save_state, random_density

FAST_OPT = '{"restarts": 2, "iterations": 10}'


class TestStateDescriptors:
    def test_family_ghz_noise(self):
        rho, desc = parse_state("family:ghz-noise,p=0.5")
        assert rho.dims == (2, 2, 2)
        assert desc["family"] == "ghz-noise"
        assert abs(np.real(rho.matrix[0, 0]) - 0.3125) < 1e-12

    def test_family_horodecki_with_noise(self):
        rho, _ = parse_state("family:horodecki,a=0.3,p=0.5")
        assert rho.dims == (3, 3)
        assert abs(np.real(np.trace(rho.matrix)) - 1.0) < 1e-12

    def test_maximally_mixed_by_total_dimension(self):
        rho, _ = parse_state("family:maximally-mixed,d=9")
        assert rho.dims == (3, 3)
        assert np.allclose(rho.matrix, np.eye(9) / 9.0)

    def test_maximally_mixed_by_dims(self):
        rho, _ = parse_state("family:maximally-mixed,dims=2x3")
        assert rho.dims == (2, 3)

    def test_rejects_non_square_total(self):
        with pytest.raises(ValueError):
            parse_state("family:maximally-mixed,d=8")

    def test_file_path(self, tmp_path):
        rho = random_density((2, 2), 2, seed=5)
        path = tmp_path / "state.json"
        save_state(rho, path)
        back, desc = parse_state(str(path))
        assert isinstance(back, DensityMatrix)
        assert desc == {"source": "file", "path": str(path), "dims": [2, 2]}

    def test_malformed_params(self):
        with pytest.raises(ValueError):
            parse_state("family:ghz-noise,p")


class TestConfigResolution:
    def test_default_seed(self, monkeypatch):
        monkeypatch.delenv("CONCBOUND_SEED", raising=False)
        assert _make_config(None).seed == DEFAULT_SEED

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("CONCBOUND_SEED", "777")
        assert _make_config(None).seed == 777

    def test_explicit_json_beats_env(self, monkeypatch):
        monkeypatch.setenv("CONCBOUND_SEED", "777")
        assert _make_config('{"seed": 5}').seed == 5

    def test_formatting_is_twelve_significant_digits(self):
        assert _fmt(1.4999999999999973) == "1.5"
        assert _fmt(4.786451314966e-4) == "0.000478645131497"


class TestBoundCommand:
    def test_ghz_example_value(self, capsys):
        code = main(["bound", "--state", "family:ghz-noise,p=1.0", "--mode", "obs2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound_on_c_squared: 1.5" in out
        assert "verdict: ENTANGLED" in out

    def test_ppt_mode_on_horodecki(self, capsys):
        code = main(["bound", "--state", "family:horodecki,a=0.5", "--mode", "ppt"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: UNDETECTED" in out

    def test_wootters_mode(self, capsys):
        code = main(["bound", "--state", "family:bell-noise,p=1.0", "--mode", "wootters"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bound_on_c_squared: 1" in out.splitlines()[1]

    def test_json_record_roundtrip(self, capsys):
        code = main(
            ["bound", "--state", "family:bell-noise,p=0.9", "--mode", "wootters", "--format", "json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        blob = out.splitlines()[-1]
        rec = RunRecord.from_json(blob)
        assert rec.report["mode"] == "wootters"
        assert rec.descriptor["family"] == "bell-noise"
        assert rec.to_json() == blob

    def test_record_file(self, tmp_path, capsys):
        path = tmp_path / "record.json"
        code = main(
            ["bound", "--state", "family:bell-noise,p=1.0", "--mode", "wootters", "--out", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        rec = RunRecord.from_json(path.read_text().strip())
        assert rec.report["verdict"] == "ENTANGLED"

    def test_csv_format(self, capsys):
        code = main(
            ["bound", "--state", "family:bell-noise,p=1.0", "--mode", "wootters", "--format", "csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mode,bound_on_c_squared,ppt_min_eig_worst_split,verdict" in out

    def test_obs1_with_small_optimizer(self, capsys):
        code = main(
            [
                "bound",
                "--state",
                "family:maximally-mixed,d=9",
                "--mode",
                "obs1",
                "--k",
                "1",
                "--optimizer",
                FAST_OPT,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bound_on_c_squared: 0" in out
        assert "verdict: UNDETECTED" in out

    def test_invalid_family_exits_two(self, capsys):
        code = main(["bound", "--state", "family:unknown,p=1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_two(self, capsys):
        code = main(["bound", "--state", "/nonexistent/state.json"])
        assert code == 2

    def test_obs1_on_tripartite_exits_two(self, capsys):
        code = main(["bound", "--state", "family:ghz-noise,p=1.0", "--mode", "obs1", "--optimizer", FAST_OPT])
        assert code == 2

    def test_non_finite_state_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"dims": [2, 2], "re": [NaN, 0, 0, 0], "im": [0, 0, 0, 0]}')
        code = main(["bound", "--state", str(path), "--mode", "wootters"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "NaN" in err and "Traceback" not in err

    @pytest.mark.parametrize("blob", ['{"foo": 1}', "[1]", '{"restarts": 1.5}'])
    def test_bad_optimizer_json_exits_two(self, blob, capsys):
        code = main(["bound", "--state", "family:horodecki,a=0.5", "--mode", "obs1", "--optimizer", blob])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err


class TestScanCommand:
    def test_w_scan_csv_and_threshold(self, tmp_path, capsys):
        out_csv = tmp_path / "scan.csv"
        code = main(
            [
                "scan",
                "--family",
                "w-noise",
                "--mode",
                "obs2",
                "--p-range",
                "0.01:1.0",
                "--tol",
                "1e-4",
                "--points",
                "5",
                "--out",
                str(out_csv),
            ]
        )
        printed = capsys.readouterr().out
        assert code == 0
        assert "threshold:" in printed
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "p,bound,ppt_min_eig_worst_split"
        assert len(lines) == 7  # header + 5 rows + summary
        assert lines[-1].startswith("# threshold=")
        threshold = float(lines[-1].split("threshold=")[1].split()[0])
        assert abs(threshold - 0.177975) < 1e-3

    def test_scan_is_byte_stable(self, tmp_path, capsys):
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            main(
                [
                    "scan",
                    "--family",
                    "ghz-noise",
                    "--mode",
                    "obs2",
                    "--p-range",
                    "0.01:1.0",
                    "--points",
                    "3",
                    "--out",
                    str(path),
                ]
            )
            paths.append(path)
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_not_detected_exits_three(self, tmp_path, capsys):
        out_csv = tmp_path / "quiet.csv"
        code = main(
            [
                "scan",
                "--family",
                "ghz-noise",
                "--mode",
                "obs2",
                "--p-range",
                "0.01:0.1",
                "--points",
                "3",
                "--out",
                str(out_csv),
            ]
        )
        capsys.readouterr()
        assert code == 3
        assert out_csv.read_text().strip().endswith("# threshold=not-detected")

    def test_record_contains_rows_and_scan(self, tmp_path, capsys):
        out_csv = tmp_path / "scan.csv"
        record = tmp_path / "record.json"
        main(
            [
                "scan",
                "--family",
                "ghz-noise",
                "--mode",
                "obs2",
                "--p-range",
                "0.01:1.0",
                "--points",
                "3",
                "--out",
                str(out_csv),
                "--record",
                str(record),
            ]
        )
        capsys.readouterr()
        rec = RunRecord.from_json(record.read_text().strip())
        assert len(rec.report["rows"]) == 3
        assert abs(rec.report["scan"]["threshold"] - 0.2) < 1e-3

    def test_ppt_scan_mode(self, tmp_path, capsys):
        out_csv = tmp_path / "ppt.csv"
        code = main(
            [
                "scan",
                "--family",
                "w-noise",
                "--mode",
                "ppt",
                "--p-range",
                "0.01:1.0",
                "--points",
                "3",
                "--out",
                str(out_csv),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        threshold = float(lines[-1].split("threshold=")[1].split()[0])
        assert abs(threshold - 0.2095893) < 1e-3

    def test_zero_points_exits_two_without_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "empty.csv"
        code = main(
            [
                "scan",
                "--family",
                "ghz-noise",
                "--mode",
                "obs2",
                "--p-range",
                "0.05:1.0",
                "--points",
                "0",
                "--out",
                str(out_csv),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_obs2_scan_rejects_bipartite_family(self, tmp_path, capsys):
        code = main(
            [
                "scan",
                "--family",
                "bell-noise",
                "--mode",
                "obs2",
                "--p-range",
                "0.01:1.0",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2


class TestDemoCommand:
    def test_wootters_check_passes(self, capsys):
        code = main(["demo", "wootters-check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_ghz_demo_passes(self, capsys):
        code = main(["demo", "ghz"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 3
