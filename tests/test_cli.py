"""Command line behavior: descriptors, outputs, exit codes, records."""
from __future__ import annotations

import argparse
import json
import re
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from concbound import cli
from concbound.cli import _fmt, _make_config, main, parse_state
from concbound.optimizer import DEFAULT_SEED, OptimizerConfig
from concbound.states import DensityMatrix, save_state, random_density

FAST_OPT = '{"restarts": 2, "iterations": 10}'


# Scan CSV bytes for `--p-range 0.05:1.0 --points 5 --tol 1e-3`. Every
# bound and eigenvalue is a closed form at 12 significant digits, and the
# bisection visits the same points whatever order the command runs in.
GOLDEN_SCANS = {
    ("ghz-noise", "obs2"): (
        "p,bound,ppt_min_eig_worst_split\n"
        "0.05,0,0.09375\n"
        "0.2875,0.0179443359375,-0.0546875\n"
        "0.525,0.24755859375,-0.203125\n"
        "0.7625,0.741577148437,-0.3515625\n"
        "1,1.5,-0.5\n"
        "# threshold=0.199829101563 bracket_width=0.0004638671875 evaluations=12\n"
    ),
    ("w-noise", "ppt"): (
        "p,bound,ppt_min_eig_worst_split\n"
        "0.05,0,0.0951797739604\n"
        "0.2875,0.0464662997274,-0.0464662997274\n"
        "0.525,0.188112373415,-0.188112373415\n"
        "0.7625,0.329758447103,-0.329758447103\n"
        "1,0.471404520791,-0.471404520791\n"
        "# threshold=0.210034179688 bracket_width=0.0004638671875 evaluations=12\n"
    ),
    ("bell-noise", "wootters"): (
        "p,bound,ppt_min_eig_worst_split\n"
        "0.05,0,0.2125\n"
        "0.2875,0,0.034375\n"
        "0.525,0.08265625,-0.14375\n"
        "0.7625,0.4144140625,-0.321875\n"
        "1,1,-0.5\n"
        "# threshold=0.333422851563 bracket_width=0.0004638671875 evaluations=12\n"
    ),
}


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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("family:ghz-noise,P=0.1", "got ['P']"),
            ("family:bell-noise,a=0.5", "got ['a']"),
            ("family:horodecki,a=0.2,p=0.5,p=1", "'p' given twice"),
            ("family:horodecki,a=0.2,a=0.3", "'a' given twice"),
            ("family:horodecki,p=0.5", "needs the keys ['a']"),
            ("family:maximally-mixed,d=9,p=0.5", "got ['d', 'p']"),
            ("family:maximally-mixed,d=9,dims=3x3", "got ['d', 'dims']"),
            ("family:maximally-mixed,d=9,d=4", "'d' given twice"),
        ],
    )
    def test_rejects_unknown_and_repeated_keys(self, text, message):
        # Each family takes its own keys (and p for a noise family), each once.
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_state(text)

    @pytest.mark.parametrize("family", ["ghz-noise:p=0.3", "horodecki:a=0.2,p=0.3", "horodecki:a=0.2,a=0.3", "w-noise:x=1"])
    def test_scan_family_rejects_unknown_and_repeated_keys(self, family, tmp_path, capsys):
        # A scan family's p is the swept parameter, not a descriptor key.
        out_csv = tmp_path / "scan.csv"
        code = main(["scan", "--family", family, "--mode", "ppt", "--p-range", "0.1:1.0", "--out", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not out_csv.exists()
        assert "error:" in captured.err and "Traceback" not in captured.err


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
        rec = json.loads(blob)
        assert rec["report"]["mode"] == "wootters"
        assert rec["descriptor"]["family"] == "bell-noise"
        assert json.dumps(rec, sort_keys=True) == blob

    def test_record_file(self, tmp_path, capsys):
        path = tmp_path / "record.json"
        code = main(
            ["bound", "--state", "family:bell-noise,p=1.0", "--mode", "wootters", "--out", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        rec = json.loads(path.read_text().strip())
        assert rec["report"]["verdict"] == "ENTANGLED"

    def test_unwritable_record_exits_two_before_output(self, tmp_path, capsys):
        path = tmp_path / "missing" / "record.json"
        code = main(["bound", "--state", "family:bell-noise,p=1.0", "--mode", "wootters", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err

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

    @pytest.mark.parametrize("state", ["family:horodecki,a=0.5", "family:maximally-mixed,dims=2x3", "family:ghz-noise,p=0.5"])
    def test_wootters_mode_rejects_other_than_two_qubits(self, state, capsys):
        code = main(["bound", "--state", state, "--mode", "wootters"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err

    def test_non_finite_state_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"dims": [2, 2], "re": [NaN, 0, 0, 0], "im": [0, 0, 0, 0]}')
        code = main(["bound", "--state", str(path), "--mode", "wootters"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "NaN" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "blob",
        [
            '{"dims": [2], "re": [1, 0], "im": [0, Infinity]}',
            '{"dims": [2], "re": [[0.5, 0], [0, 0.5]], "im": [[0, Infinity], [-Infinity, 0]]}',
        ],
        ids=["pure", "density"],
    )
    def test_infinite_imaginary_part_exits_two(self, blob, tmp_path, capsys):
        # No "invalid value" warning from 1j * inf comes before the typed error.
        path = tmp_path / "inf.json"
        path.write_text(blob)
        code = main(["bound", "--state", str(path), "--mode", "ppt"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err and "infinite" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            # A 2^28 x 2^28 matrix: 512 PiB.
            ["--state", "family:maximally-mixed,dims=" + "x".join(["2"] * 28), "--mode", "ppt"],
            # 2^52 restarts on each of the 36 pairs of the nine 3x3 generators.
            ["--state", "family:horodecki,a=0.2", "--mode", "obs1", "--k", "2", "--optimizer", '{"restarts": 4503599627370496, "iterations": 1}'],
        ],
        ids=["state", "restarts"],
    )
    def test_unallocatable_input_exits_two(self, argv, capsys):
        code = main(["bound"] + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("blob", ['{"dims": [2, 2]}', "[1, 2]", '"x"', '{"dims": 2, "re": [1, 0], "im": [0, 0]}'])
    def test_malformed_state_file_exits_two(self, blob, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(blob)
        code = main(["bound", "--state", str(path), "--mode", "ppt"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("im", ["[[0, 0, 0, 0]]", "0", "[0, 0, 0, 0]"])
    def test_state_file_with_mismatched_re_im_shapes_exits_two(self, im, tmp_path, capsys):
        # "im" is not broadcast against "re": every shape but re's is rejected.
        re_rows = json.dumps((np.eye(4) / 4).tolist())
        path = tmp_path / "state.json"
        path.write_text(f'{{"dims": [2, 2], "re": {re_rows}, "im": {im}}}')
        code = main(["bound", "--state", str(path), "--mode", "ppt"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err and "shape" in captured.err and "Traceback" not in captured.err

    # A negative tolerance would certify separable states: -0.05 read ENTANGLED on the Werner state p = 0.2.
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-0.05"])
    @pytest.mark.parametrize("mode", ["wootters", "ppt"])
    def test_non_finite_tol_detect_exits_two_before_output(self, mode, tol, capsys):
        code = main(["bound", "--state", "family:bell-noise,p=1", "--mode", mode, f"--tol-detect={tol}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("source", ["auto", "ghz", "w"])
    def test_example_obs2_rejects_k_other_than_one(self, source, capsys):
        # The example families hold one operator per split.
        code = main(["bound", "--state", "family:ghz-noise,p=1", "--mode", "obs2", "--gen-source", source, "--k", "7"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err and "does not read --k" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("k", ["7", "2", "0"])
    def test_wootters_rejects_k_other_than_one(self, k, tmp_path, capsys):
        # The two-qubit family holds one operator, for bound and scan alike.
        code = main(["bound", "--state", "family:bell-noise,p=1", "--mode", "wootters", "--k", k])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "does not read --k" in captured.err and "Traceback" not in captured.err
        out_csv = tmp_path / "scan.csv"
        argv = ["scan", "--family", "bell-noise", "--mode", "wootters", "--k", k, "--p-range", "0.1:1.0"]
        code = main(argv + ["--out", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not out_csv.exists()
        assert "does not read --k" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "state, mode, extra, unread",
        [
            ("family:bell-noise", "ppt", ["--k", "7"], "--k"),
            ("family:bell-noise", "obs1", ["--gen-source", "w"], "--gen-source"),
            ("family:bell-noise", "wootters", ["--optimizer", '{"restarts": 3}'], "--optimizer"),
            # The ghz and w example sources are closed forms: no search runs.
            ("family:ghz-noise,p=0.9", "obs2", ["--optimizer", '{"restarts": 3}'], "--optimizer"),
        ],
    )
    def test_options_the_mode_never_reads_exit_two(self, state, mode, extra, unread, tmp_path, capsys):
        record = tmp_path / "record.json"
        code = main(["bound", "--state", state, "--mode", mode, *extra, "--format", "csv", "--out", str(record)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not record.exists()
        assert "error:" in captured.err and f"does not read {unread}" in captured.err and "Traceback" not in captured.err

    def test_default_valued_options_are_not_unread(self, capsys):
        code = main(["bound", "--state", "family:bell-noise", "--mode", "ppt", "--k", "1", "--gen-source", "auto"])
        assert code == 0
        assert "verdict: ENTANGLED" in capsys.readouterr().out

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

    @pytest.mark.parametrize("family,mode", sorted(GOLDEN_SCANS))
    def test_golden_csv_bytes(self, family, mode, tmp_path, capsys):
        out_csv = tmp_path / "scan.csv"
        argv = ["scan", "--family", family, "--mode", mode, "--p-range", "0.05:1.0", "--points", "5", "--tol", "1e-3"]
        code = main(argv + ["--out", str(out_csv)])
        captured = capsys.readouterr()
        expected = GOLDEN_SCANS[family, mode]
        threshold = expected.splitlines()[-1].split()[1].removeprefix("threshold=")
        assert code == 0
        assert captured.out == f"threshold: {threshold} (bracket 0.0004638671875, 12 evaluations)\n"
        assert captured.err == ""
        assert out_csv.read_bytes() == expected.encode()

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
        rec = json.loads(record.read_text().strip())
        assert len(rec["report"]["rows"]) == 3
        assert abs(rec["report"]["scan"]["threshold"] - 0.2) < 1e-3

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

    def test_negative_tol_detect_exits_two_without_csv(self, tmp_path, capsys):
        # At -0.05 the ppt scan of the Werner family fired at p = 0.1, where the state is separable.
        out_csv = tmp_path / "x.csv"
        code = main(["scan", "--family", "bell-noise", "--mode", "ppt", "--p-range", "0.1:0.3", "--tol-detect=-0.05", "--out", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not out_csv.exists()
        assert "error:" in captured.err and "nonnegative" in captured.err

    @pytest.mark.parametrize("unwritable", ["--out", "--record"])
    def test_unwritable_output_exits_two_before_output(self, unwritable, tmp_path, capsys):
        paths = {"--out": tmp_path / "x.csv", "--record": tmp_path / "record.json"}
        paths[unwritable] = tmp_path / "missing" / paths[unwritable].name
        argv = ["scan", "--family", "bell-noise", "--mode", "wootters", "--p-range", "0.1:1.0"]
        code = main(argv + [arg for option, path in paths.items() for arg in (option, str(path))])
        captured = capsys.readouterr()
        assert code == 2
        # Both outputs or neither: a CSV that cannot be written takes the record with it.
        assert captured.out == "" and not paths["--out"].exists() and not paths["--record"].exists()
        assert "error:" in captured.err and "Traceback" not in captured.err

    def test_unallocatable_grid_exits_two(self, tmp_path, capsys):
        # 2^56 grid rows: 512 PiB of float64, which every OS refuses at once.
        out_csv = tmp_path / "x.csv"
        argv = ["scan", "--family", "bell-noise", "--mode", "wootters", "--p-range", "0.1:1.0", "--points", str(2**56)]
        code = main(argv + ["--out", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not out_csv.exists()
        assert "error:" in captured.err and "Traceback" not in captured.err

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
        for family in ("bell-noise", "horodecki:a=0.3"):
            out_csv = tmp_path / "x.csv"
            code = main(
                [
                    "scan",
                    "--family",
                    family,
                    "--mode",
                    "obs2",
                    "--p-range",
                    "0.01:1.0",
                    "--out",
                    str(out_csv),
                ]
            )
            assert code == 2
            assert "error:" in capsys.readouterr().err
            assert not out_csv.exists()

    def test_example_obs2_scan_rejects_k_other_than_one(self, tmp_path, capsys):
        out_csv = tmp_path / "x.csv"
        code = main(["scan", "--family", "w-noise", "--mode", "obs2", "--k", "2", "--p-range", "0.01:1.0", "--out", str(out_csv)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_ppt_scan_rejects_k_it_never_reads(self, tmp_path, capsys):
        out_csv = tmp_path / "x.csv"
        code = main(["scan", "--family", "w-noise", "--mode", "ppt", "--k", "7", "--p-range", "0.01:1.0", "--out", str(out_csv)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not out_csv.exists()
        assert "error:" in captured.err and "does not read --k" in captured.err

    def test_ppt_scan_evaluates_each_grid_row_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        ppt = cli.ppt_min_eigenvalue

        def spy(rho, split):
            calls.append(split)
            return ppt(rho, split)

        monkeypatch.setattr(cli, "ppt_min_eigenvalue", spy)
        out_csv = tmp_path / "ppt.csv"
        code = main(["scan", "--family", "w-noise", "--mode", "ppt", "--p-range", "0.01:1.0", "--points", "5", "--out", str(out_csv)])
        printed = capsys.readouterr().out
        assert code == 0 and "16 evaluations" in printed
        # Three splits for each of 16 bisection points and 5 grid rows.
        assert len(calls) == 3 * (16 + 5)

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_bad_tolerance_exits_two_before_the_grid(self, tol, tmp_path, capsys, monkeypatch):
        calls = []

        def detector(rho):
            # Bounded, so a bisection that never stops fails instead of hanging.
            calls.append(1)
            if len(calls) > 200:
                raise RuntimeError("bisection did not terminate")
            return float(rho.matrix[0, 0].real > 0.3)

        reads, _, value = cli._MODES["obs2"]
        report = lambda rho, *args: SimpleNamespace(bound_on_c_squared=detector(rho))
        monkeypatch.setitem(cli._MODES, "obs2", (reads, report, value))
        out_csv = tmp_path / "x.csv"
        code = main(
            ["scan", "--family", "ghz-noise", "--mode", "obs2", "--p-range", "0.05:1.0", f"--tol={tol}", "--out", str(out_csv)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out_csv.exists()
        assert calls == []


class TestScanMatchesBound:
    """`scan` evaluates each mode with the detector `bound` reports: every
    grid row's bound equals `bound_on_c_squared` at that p, bit for bit."""

    @staticmethod
    def _scan_rows(tmp_path, family, mode, p_range, points, *extra):
        record = tmp_path / "record.json"
        argv = ["scan", "--family", family, "--mode", mode, "--p-range", p_range, "--points", str(points)]
        code = main(argv + ["--tol", "0.1", *extra, "--out", str(tmp_path / "scan.csv"), "--record", str(record)])
        assert code in (0, 3)
        return json.loads(record.read_text())["report"]["rows"]

    @staticmethod
    def _bound(state, mode, capsys, *extra):
        capsys.readouterr()
        assert main(["bound", "--state", state, "--mode", mode, "--format", "json", *extra]) == 0
        return json.loads(capsys.readouterr().out.splitlines()[-1])["report"]["bound_on_c_squared"]

    @pytest.mark.parametrize(
        "family,state,mode,p_range,points,extra",
        [
            ("bell-noise", "family:bell-noise", "wootters", "0.05:1.0", 7, ()),
            ("ghz-noise", "family:ghz-noise", "obs2", "0.05:1.0", 5, ()),
            ("w-noise", "family:w-noise", "obs2", "0.05:1.0", 5, ()),
            ("horodecki:a=0.2", "family:horodecki,a=0.2", "obs1", "0.9:1.0", 2, ("--k", "2", "--optimizer", FAST_OPT)),
            ("w-noise", "family:w-noise", "obs3", "0.5:1.0", 1, ("--optimizer", FAST_OPT)),
        ],
    )
    def test_scan_rows_equal_bound_reports(self, family, state, mode, p_range, points, extra, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CONCBOUND_SEED", raising=False)
        rows = self._scan_rows(tmp_path, family, mode, p_range, points, *extra)
        assert len(rows) == points
        for p, bound, _ in rows:
            assert self._bound(f"{state},p={p!r}", mode, capsys, *extra) == bound

    def test_wootters_closed_form_is_the_report_bound(self):
        rng = np.random.default_rng(11)
        for i in range(50):
            rho = random_density((2, 2), i % 4 + 1, seed=int(rng.integers(2**31)))
            _, report, value = cli._MODES["wootters"]
            assert value(rho, 1) == report(rho, 1, None, None).bound_on_c_squared


class TestDemoCommand:
    # Scenario -> its number of checks.
    CHECKS = {"wootters-check": 1, "ghz": 3, "w": 5, "horodecki": 5}

    @pytest.mark.parametrize("scenario", cli._DEMOS)
    def test_demo_passes(self, scenario, capsys):
        code = main(["demo", scenario])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == self.CHECKS[scenario]
        assert "FAIL" not in out

    def test_every_demo_is_counted(self):
        assert sorted(self.CHECKS) == sorted(cli._DEMOS)


class TestOptionSurface:
    """The knobs a user can turn, listed in full: adding an optimizer field
    or a command-line option has to change this list on purpose."""

    def test_optimizer_config_fields(self):
        assert [f.name for f in fields(OptimizerConfig)] == [
            "restarts", "iterations", "seed", "step_initial", "step_final", "subset_strategy", "top_count",
        ]

    def test_subcommand_options(self):
        parser = cli.build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: [s for a in sub._actions for s in (a.option_strings or [a.dest])]
            for name, sub in subparsers.choices.items()
        }
        assert [s for a in parser._actions for s in (a.option_strings or [a.dest])] == ["-h", "--help", "subcommand"]
        assert options == {
            "bound": ["-h", "--help", "--state", "--mode", "--k", "--optimizer", "--gen-source", "--tol-detect", "--out", "--format"],
            "scan": [
                "-h", "--help", "--family", "--mode", "--p-range", "--tol", "--tol-detect", "--k", "--points",
                "--optimizer", "--out", "--record",
            ],
            "demo": ["-h", "--help", "scenario"],
        }

    def test_environment_variables(self):
        read = set()
        for path in Path(cli.__file__).parent.glob("*.py"):
            read |= set(re.findall(r"""(?:environ\.get\(|environ\[|getenv\()["'](\w+)""", path.read_text()))
        assert read == {"CONCBOUND_SEED"}
