"""Command line behavior: descriptors, outputs, exit codes, records."""
from __future__ import annotations

import argparse
import gc
import json
import re
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from concbound import bounds_bipartite, bounds_multipartite, cli, states
from concbound.bounds_bipartite import observation1_bound
from concbound.bounds_multipartite import observation2_bound
from concbound.generators import bipartite_generators
from concbound.cli import _fmt, _make_config, main, parse_state
from concbound.optimizer import DEFAULT_SEED, OptimizerConfig
from concbound.states import DensityMatrix, bell_state, save_state, random_density, white_noise_mix

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
    ("w-noise", "obs2"): (
        "p,bound,ppt_min_eig_worst_split\n"
        "0.05,0,0.0951797739604\n"
        "0.2875,0.011835127377,-0.0464662997274\n"
        "0.525,0.11881241956,-0.188112373415\n"
        "0.7625,0.337089599324,-0.329758447103\n"
        "1,0.666666666667,-0.471404520791\n"
        "# threshold=0.177563476563 bracket_width=0.0004638671875 evaluations=12\n"
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

    @pytest.mark.parametrize(
        "tol_of,verdict",
        [
            (lambda edge: edge, "UNDETECTED"),
            (lambda edge: np.nextafter(edge, 1.0), "UNDETECTED"),
            (lambda edge: np.nextafter(edge, 0.0), "ENTANGLED"),
            (lambda edge: 0.0, "ENTANGLED"),
        ],
    )
    def test_ppt_verdict_at_its_tolerance_edge(self, tol_of, verdict, capsys):
        # The ppt verdict fires exactly when --tol-detect lies below -w, w the worst-split eigenvalue.
        argv = ["bound", "--state", "family:bell-noise,p=0.5", "--mode", "ppt"]
        assert main(argv + ["--format", "json"]) == 0
        worst = json.loads(capsys.readouterr().out.splitlines()[-1])["report"]["ppt"]["worst"]
        assert worst == pytest.approx(-0.125, abs=1e-12)
        tol = f"--tol-detect={float(tol_of(-worst))!r}"
        for fmt in ("text", "json", "csv"):
            assert main(argv + [tol, "--format", fmt]) == 0
            out = capsys.readouterr().out.splitlines()
            assert f"verdict: {verdict}" in out
            if fmt == "json":
                assert json.loads(out[-1])["report"]["verdict"] == verdict
            if fmt == "csv":
                assert out[-1] == f"ppt,,{_fmt(worst)},{verdict}"

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

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,
            # A Bell state written with string amplitudes read ENTANGLED.
            '{"dims": [2, 2], "re": ["0.7071067811865476", 0, 0, "0.7071067811865476"], "im": [0, 0, 0, 0]}',
            # |00> with a boolean amplitude read UNDETECTED and exited 0.
            '{"dims": [2, 2], "re": [true, 0, 0, 0], "im": [0, 0, 0, 0]}',
            '{"dims": [2], "re": [1' + "0" * 400 + ', 0], "im": [0, 0]}',
        ],
        ids=["deep", "strings", "boolean", "huge-integer"],
    )
    def test_state_file_that_is_not_numbers_exits_two(self, text, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(text)
        code = main(["bound", "--state", str(path), "--mode", "wootters"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error:" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "nest",
        ["[[1], 0]", "[" * 65 + "1" + "]" * 65],
        ids=["ragged", "past-64-dimensions"],
    )
    def test_state_file_that_is_not_an_array_exits_two_with_our_message(self, nest, tmp_path, capsys):
        # numpy rejects both with a plain ValueError whose text names none of the file's keys.
        path = tmp_path / "state.json"
        path.write_text(f'{{"dims": [2], "re": {nest}, "im": {nest}}}')
        code = main(["bound", "--state", str(path), "--mode", "ppt"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert 'error: "re" must be a rectangular array of at most 64 dimensions' in captured.err

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

    def test_wootters_rejects_two_qutrits_with_one_message(self, tmp_path, capsys):
        # bound and scan reach the same check, so they print the same line.
        out_csv = tmp_path / "scan.csv"
        scan = ["scan", "--family", "horodecki:a=0.2", "--mode", "wootters", "--p-range", "0.1:1.0", "--out", str(out_csv)]
        for argv in (["bound", "--state", "family:horodecki,a=0.2", "--mode", "wootters"], scan):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == "error: state dims (3, 3) versus generator dims (2, 2)\n"
        assert not out_csv.exists()

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
        spectra = states._pt_spectra

        def spy(rho, splits):
            calls.append(list(splits))
            return spectra(rho, splits)

        monkeypatch.setattr(states, "_pt_spectra", spy)
        out_csv = tmp_path / "ppt.csv"
        code = main(["scan", "--family", "w-noise", "--mode", "ppt", "--p-range", "0.01:1.0", "--points", "5", "--out", str(out_csv)])
        printed = capsys.readouterr().out
        assert code == 0 and "16 evaluations" in printed
        # One stacked call of the three single-party transposes per distinct state: 16 bisection points and
        # the 5 grid rows, 4 of which (p_lo, p_hi, 0.505 and 0.2575) the bisection visited.
        assert calls == [[(0,), (1,), (2,)]] * (16 + 5 - 4)

    def test_ppt_bound_reads_one_summary(self, capsys, monkeypatch):
        calls = []
        spectra = states._pt_spectra
        monkeypatch.setattr(states, "_pt_spectra", lambda rho, splits: calls.append(1) or spectra(rho, splits))
        assert main(["bound", "--state", "family:w-noise,p=0.5", "--mode", "ppt"]) == 0
        assert "verdict: ENTANGLED" in capsys.readouterr().out and calls == [1]

    def test_searched_bound_and_its_summary_share_one_transpose_spectrum(self, capsys, monkeypatch):
        # The projection lemma of the k=2 search and the printed PPT summary read the same cached row.
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(np.shape(a)) or eigvalsh(a))
        assert main(["bound", "--state", "family:horodecki,a=0.2", "--mode", "obs1", "--k", "2", "--optimizer", FAST_OPT]) == 0
        assert "verdict: ENTANGLED" in capsys.readouterr().out and calls == [(1, 9, 9)]

    def test_ppt_summary_of_two_parties_reads_the_one_split(self, monkeypatch):
        calls = []
        spectra = states._pt_spectra

        def spy(rho, splits):
            calls.append(list(splits))
            return spectra(rho, splits)

        monkeypatch.setattr(states, "_pt_spectra", spy)
        summary = cli._ppt_summary(white_noise_mix(bell_state(), 0.9))
        assert calls == [[(0,)]] and list(summary["per_split"]) == ["1|2"] and summary["worst_split"] == "1|2"
        # The Werner state's transpose has the eigenvalue (1 - 3p)/4.
        assert summary["worst"] == summary["per_split"]["1|2"] == pytest.approx(-0.425, abs=1e-12)

    @pytest.mark.parametrize("family,mode", [("w-noise", "ppt"), ("w-noise", "obs2"), ("ghz-noise", "obs2"), ("bell-noise", "wootters")])
    def test_scan_eigendecomposes_the_base_and_each_state_it_frames(self, family, mode, tmp_path, capsys, monkeypatch):
        calls, built = [], set()
        eigh, mix = np.linalg.eigh, cli.white_noise_mix
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(np.shape(a)) or eigh(a))
        monkeypatch.setattr(cli, "white_noise_mix", lambda base, p: built.add(p) or mix(base, p))
        argv = ["scan", "--family", family, "--mode", mode, "--p-range", "0.01:1.0", "--tol", "1e-4", "--points", "5"]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 0
        capsys.readouterr()
        # No state the library builds is checked again, so the base is never decomposed: the PPT spectra read a
        # mixture's matrix alone, and only the gap engine's support factor decomposes it, once per distinct state.
        assert len(calls) == (0 if mode == "ppt" else len(built)) and len(built) >= 17

    @pytest.mark.parametrize("existing", [False, True])
    def test_grid_failure_writes_no_output(self, existing, tmp_path, capsys):
        # Not detected at p_hi, so the bisection never reads p_lo; the grid's first row rejects it before
        # either file is opened, so earlier outputs at those paths keep their bytes.
        out_csv, record = tmp_path / "x.csv", tmp_path / "r.json"
        if existing:
            out_csv.write_text("earlier scan\n")
            record.write_text("earlier record\n")
        argv = ["scan", "--family", "bell-noise", "--mode", "wootters", "--p-range=-0.5:0.2", "--out", str(out_csv)]
        assert main(argv + ["--record", str(record)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "outside [0, 1]" in captured.err
        if existing:
            assert out_csv.read_text() == "earlier scan\n" and record.read_text() == "earlier record\n"
        else:
            assert not out_csv.exists() and not record.exists()

    def test_interrupted_grid_keeps_earlier_outputs(self, tmp_path, capsys, monkeypatch):
        # The wootters bisection never reads the PPT summary; the grid's first row does, and is interrupted.
        out_csv, record = tmp_path / "x.csv", tmp_path / "r.json"
        out_csv.write_text("earlier scan\n")
        record.write_text("earlier record\n")

        def interrupt(rho):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_ppt_summary", interrupt)
        argv = ["scan", "--family", "bell-noise", "--mode", "wootters", "--p-range", "0.01:1.0", "--out", str(out_csv)]
        with pytest.raises(KeyboardInterrupt):
            main(argv + ["--record", str(record)])
        assert out_csv.read_text() == "earlier scan\n" and record.read_text() == "earlier record\n"

    def test_record_leaves_the_csv_bytes_alone(self, tmp_path, capsys):
        argv = ["scan", "--family", "w-noise", "--mode", "ppt", "--p-range", "0.01:1.0", "--points", "7"]
        assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b.csv"), "--record", str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        rows = json.loads((tmp_path / "r.json").read_text())["report"]["rows"]
        assert [",".join(map(_fmt, row)) for row in rows] == (tmp_path / "a.csv").read_text().splitlines()[1:-1]

    def test_tolerance_below_the_float_spacing_exits_zero(self, tmp_path, capsys, monkeypatch):
        calls = []
        reads, report, value = cli._MODES["ppt"]

        def bounded(rho, k):
            # Bounded, so a bisection that never stops fails instead of hanging.
            calls.append(1)
            if len(calls) > 500:
                raise RuntimeError("bisection did not terminate")
            return value(rho, k)

        monkeypatch.setitem(cli._MODES, "ppt", (reads, report, bounded))
        out_csv = tmp_path / "x.csv"
        code = main(["scan", "--family", "bell-noise", "--mode", "ppt", "--p-range", "0.1:1", "--tol", "1e-300", "--out", str(out_csv)])
        assert code == 0
        assert capsys.readouterr().out.startswith("threshold: 0.333333334")
        assert out_csv.read_text().splitlines()[-1].startswith("# threshold=0.333333334")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_bad_tolerance_exits_two_before_the_grid(self, tol, tmp_path, capsys, monkeypatch):
        calls = []

        def detector(rho):
            # Bounded, so a bisection that never stops fails instead of hanging.
            calls.append(1)
            if len(calls) > 200:
                raise RuntimeError("bisection did not terminate")
            return float(rho.matrix[0, 0].real > 0.3)

        # A ghz-noise scan of obs2 reads the scan value of the family's generator source's row.
        reads, report, _ = cli._MODES["obs2-ghz"]
        monkeypatch.setitem(cli._MODES, "obs2-ghz", (reads, report, lambda rho, k: detector(rho)))
        out_csv = tmp_path / "x.csv"
        code = main(
            ["scan", "--family", "ghz-noise", "--mode", "obs2", "--p-range", "0.05:1.0", f"--tol={tol}", "--out", str(out_csv)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out_csv.exists()
        assert calls == []

    @pytest.mark.parametrize("mode,row", [("obs2", "obs2-w"), ("ppt", "ppt")])
    def test_scan_evaluates_each_p_once(self, mode, row, tmp_path, capsys, monkeypatch):
        built, scored = [], []
        mix = cli.white_noise_mix
        monkeypatch.setattr(cli, "white_noise_mix", lambda base, p: built.append(p) or mix(base, p))
        # Both rows answer scan from their scan value, not from a report.
        reads, report, value = cli._MODES[row]
        spy = lambda rho, k: scored.append(rho) or value(rho, k)
        monkeypatch.setitem(cli._MODES, row, (reads, report, spy))
        code = main(["scan", "--family", "w-noise", "--mode", mode, "--p-range", "0.01:1.0", "--points", "5", "--out", str(tmp_path / "x.csv")])
        evaluations = int(re.search(r"(\d+) evaluations", capsys.readouterr().out).group(1))
        assert code == 0
        # The grid's two ends are the bisection's first two points.
        assert len(built) == len(set(built)) <= evaluations + 5 - 2
        assert evaluations <= len(scored) == len(set(map(id, scored))) <= evaluations + 5 - 2

    def test_scan_keeps_only_the_states_its_bisection_evaluated(self, tmp_path, capsys, monkeypatch):
        built, alive = [], []
        mix = cli.white_noise_mix
        monkeypatch.setattr(cli, "white_noise_mix", lambda base, p: (rho := mix(base, p), built.append(weakref.ref(rho)))[0])
        summary = cli._ppt_summary

        def spy(rho):
            gc.collect()
            alive.append(sum(ref() is not None for ref in built))
            return summary(rho)

        # obs2 on ghz-noise reads the PPT summary of each grid row, and of nothing else.
        monkeypatch.setattr(cli, "_ppt_summary", spy)
        code = main(["scan", "--family", "ghz-noise", "--mode", "obs2", "--p-range", "0.01:1.0", "--points", "201", "--out", str(tmp_path / "x.csv")])
        evaluations = int(re.search(r"(\d+) evaluations", capsys.readouterr().out).group(1))
        assert code == 0 and len(alive) == 201 and len(built) > 201
        assert alive[-1] <= evaluations


class TestParserReuse:
    """main builds its parser once per process; build_parser still returns a fresh one."""

    def test_main_builds_the_parser_once(self, capsys):
        cli._parser.cache_clear()
        for _ in range(2):
            assert main(["bound", "--state", "family:bell-noise,p=0.9", "--mode", "wootters"]) == 0
        assert cli._parser.cache_info().misses == 1
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("sub", ["bound", "scan", "demo"])
    def test_help_is_the_fresh_parsers_help(self, sub, capsys):
        (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        expected = subparsers.choices[sub].format_help()
        cli._parser.cache_clear()
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main([sub, "--help"])
            assert exit_info.value.code == 0
            assert capsys.readouterr().out == expected


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
            # c ** 2 read 0.04471744622499991 here, one bit below the report's gap squared.
            ("bell-noise", "family:bell-noise", "wootters", "0.47431:0.9", 1, ()),
        ],
    )
    def test_scan_rows_equal_bound_reports(self, family, state, mode, p_range, points, extra, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CONCBOUND_SEED", raising=False)
        rows = self._scan_rows(tmp_path, family, mode, p_range, points, *extra)
        assert len(rows) == points
        for p, bound, _ in rows:
            assert self._bound(f"{state},p={p!r}", mode, capsys, *extra) == bound

    # The noise family each row with both a report and a scan value is checked on.
    FAMILY_OF = {"obs2-ghz": "ghz-noise", "obs2-w": "w-noise", "wootters": "bell-noise"}
    FIXED = [row for row, (_, report, value) in cli._MODES.items() if report and value]

    @staticmethod
    def _assert_public_aggregate(row, rho):
        """The row's scan value and report bytes are the public aggregate's at its fixed coefficients."""
        if row == "wootters":
            want = replace(observation1_bound(rho, 1, {(0,): [1.0]}, bipartite_generators(2, 2)), mode="wootters")
        else:
            want = observation2_bound(rho, 1, {(0,): ([1.0],) * 3}, row.removeprefix("obs2-"))
        _, report, value = cli._MODES[row]
        assert value(rho, 1) == want.bound_on_c_squared
        assert report(rho, 1, None).to_json(include_timing=False) == want.to_json(include_timing=False)

    @pytest.mark.parametrize("row", FIXED)
    def test_scan_value_is_the_report_bound_bit_for_bit(self, row):
        at = cli._noise_family(self.FAMILY_OF[row], {})
        for p in np.linspace(0.0, 1.0, 101):
            self._assert_public_aggregate(row, at(float(p)))

    def test_wootters_closed_form_is_the_report_bound(self):
        rng = np.random.default_rng(11)
        for i in range(50):
            self._assert_public_aggregate("wootters", random_density((2, 2), i % 4 + 1, seed=int(rng.integers(2**31))))

    @pytest.mark.parametrize("row", FIXED)
    def test_fixed_row_takes_one_kernel_call_and_no_aggregate(self, row, monkeypatch):
        kernel_calls, kernel = [], bounds_bipartite._gap_kernel
        monkeypatch.setattr(bounds_bipartite, "_gap_kernel", lambda *a, **kw: kernel_calls.append(1) or kernel(*a, **kw))
        for module in (bounds_bipartite, bounds_multipartite):
            monkeypatch.setattr(module, "_aggregate", lambda *a, **kw: pytest.fail("a fixed row went through _aggregate"))
        _, report, value = cli._MODES[row]
        rho = cli._noise_family(self.FAMILY_OF[row], {})(0.7)
        report(rho, 1, None)
        assert len(kernel_calls) == 1
        value(rho, 1)
        assert len(kernel_calls) == 2


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
