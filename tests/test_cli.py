"""Tests for the rctree-bounds command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.networks import figure7_tree
from repro.generators import random_design
from repro.spef.writer import write_spef
from repro.spicefmt.writer import write_spice
from repro.sta.netlist import write_design

FIG7_EXPRESSION = (
    "(URC 15 0) WC (URC 0 2) WC (WB (URC 8 0) WC URC 0 7) WC (URC 3 4) WC URC 0 9"
)


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for args in (
            ["analyze", "deck.sp"],
            ["expression", "URC 1 2"],
            ["experiments"],
            ["pla", "100"],
            ["timing", "--netlist", "d.json", "--period", "1e-9"],
        ):
            namespace = parser.parse_args(args)
            assert namespace.command == args[0]

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExpressionCommand:
    def test_prints_twoport_and_bounds(self, capsys):
        status = main(["expression", FIG7_EXPRESSION])
        captured = capsys.readouterr().out
        assert status == 0
        assert "TD2=363" in captured
        assert "delay to 0.5" in captured

    def test_custom_thresholds(self, capsys):
        status = main(["expression", FIG7_EXPRESSION, "--threshold", "0.7"])
        captured = capsys.readouterr().out
        assert status == 0
        assert "delay to 0.7" in captured
        assert "delay to 0.5" not in captured


class TestAnalyzeCommand:
    @pytest.fixture
    def deck_path(self, tmp_path):
        path = tmp_path / "fig7.sp"
        write_spice(figure7_tree(), path, segments_per_line=6)
        return str(path)

    def test_reports_characteristic_times(self, capsys, deck_path):
        status = main(["analyze", deck_path])
        captured = capsys.readouterr().out
        assert status == 0
        assert "T_De" in captured
        assert "out" in captured

    def test_certification_pass(self, capsys, deck_path):
        status = main(["analyze", deck_path, "--threshold", "0.5", "--deadline", "400"])
        captured = capsys.readouterr().out
        assert status == 0
        assert "PASS" in captured

    def test_certification_fail_sets_exit_code(self, capsys, deck_path):
        status = main(["analyze", deck_path, "--threshold", "0.9", "--deadline", "10"])
        captured = capsys.readouterr().out
        assert status == 1
        assert "FAIL" in captured

    def test_output_restriction(self, capsys, deck_path):
        main(["analyze", deck_path, "--output", "out"])
        captured = capsys.readouterr().out
        assert "output out" in captured


class TestPlaCommand:
    def test_pla_delay_report(self, capsys):
        status = main(["pla", "100"])
        captured = capsys.readouterr().out
        assert status == 0
        assert "100 minterms" in captured
        assert "ns" in captured


class TestExperimentsCommand:
    def test_single_experiment(self, capsys):
        status = main(["experiments", "figure10"])
        captured = capsys.readouterr().out
        assert status == 0
        assert "figure10" in captured
        assert "PASS" in captured


class TestTimingCommand:
    @pytest.fixture
    def design_files(self, tmp_path):
        design, parasitics = random_design(30, seed=5)
        netlist = tmp_path / "design.json"
        write_design(design, netlist)
        trees = {
            name: record.tree
            for name, record in parasitics.items()
            if record.tree is not None
        }
        spef = tmp_path / "design.spef"
        write_spef(trees, spef)
        return str(netlist), str(spef)

    def test_json_report_with_spef(self, capsys, design_files):
        netlist, spef = design_files
        status = main(
            ["timing", "--netlist", netlist, "--spef", spef, "--period", "5e-9"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["verdict"] == "PASS"
        assert set(payload["worst_slack"]) == {"elmore", "upper_bound", "lower_bound"}
        assert payload["critical_path"][0]["arc"] == "startpoint"
        assert payload["worst_endpoint"]["upper_bound"] is not None

    def test_netlist_only_run(self, capsys, design_files):
        netlist, _ = design_files
        status = main(["timing", "--netlist", netlist, "--period", "5e-9"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["clock_period"] == pytest.approx(5e-9)

    def test_fail_verdict_sets_exit_code(self, capsys, design_files):
        netlist, spef = design_files
        status = main(
            ["timing", "--netlist", netlist, "--spef", spef, "--period", "1e-12"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert payload["verdict"] == "FAIL"
        assert payload["worst_slack"]["lower_bound"] < 0.0

    def test_report_written_to_file(self, tmp_path, capsys, design_files):
        netlist, spef = design_files
        out = tmp_path / "report.json"
        main(
            [
                "timing", "--netlist", netlist, "--spef", spef,
                "--period", "5e-9", "--output", str(out),
            ]
        )
        capsys.readouterr()
        assert json.loads(out.read_text())["verdict"] == "PASS"

    def test_wire_cap_default_slows_design(self, capsys, design_files):
        netlist, _ = design_files
        main(["timing", "--netlist", netlist, "--period", "5e-9"])
        bare = json.loads(capsys.readouterr().out)
        main(
            [
                "timing", "--netlist", netlist, "--period", "5e-9",
                "--wire-cap", "200e-15",
            ]
        )
        loaded = json.loads(capsys.readouterr().out)
        assert loaded["worst_slack"]["elmore"] < bare["worst_slack"]["elmore"]

    def test_indeterminate_verdict_sets_exit_code_2(self, capsys, design_files):
        """A period between the two guaranteed bounds is INDETERMINATE -> 2."""
        netlist, spef = design_files
        main(["timing", "--netlist", netlist, "--spef", spef, "--period", "5e-9"])
        first = json.loads(capsys.readouterr().out)
        # Worst guaranteed-latest/-earliest arrivals from the slack report.
        latest = 5e-9 - first["worst_slack"]["upper_bound"]
        earliest = 5e-9 - first["worst_slack"]["lower_bound"]
        assert earliest < latest
        period = 0.5 * (earliest + latest)
        status = main(
            ["timing", "--netlist", netlist, "--spef", spef, "--period", str(period)]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "INDETERMINATE"
        assert status == 2

    def test_model_selects_critical_path_model(self, capsys, design_files):
        netlist, spef = design_files
        status = main(
            [
                "timing", "--netlist", netlist, "--spef", spef,
                "--period", "5e-9", "--model", "elmore",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["model"] == "elmore"
        # The traced path's endpoint arrival matches the Elmore worst slack.
        arrival = payload["critical_path"][-1]["arrival"]
        assert arrival == pytest.approx(5e-9 - payload["worst_slack"]["elmore"])


class TestTimingCorners:
    @pytest.fixture
    def corners_file(self, tmp_path):
        spec = {
            "scenarios": [
                {"name": "typical"},
                {
                    "name": "slow",
                    "r_derate": 1.3,
                    "c_derate": 1.25,
                    "drive_derate": 1.3,
                },
                {"name": "relaxed", "clock_period": 1e-6, "threshold": 0.7},
            ]
        }
        path = tmp_path / "corners.json"
        path.write_text(json.dumps(spec))
        return str(path)

    @pytest.fixture
    def design_files(self, tmp_path):
        design, parasitics = random_design(30, seed=5)
        netlist = tmp_path / "design.json"
        write_design(design, netlist)
        trees = {
            name: record.tree
            for name, record in parasitics.items()
            if record.tree is not None
        }
        spef = tmp_path / "design.spef"
        write_spef(trees, spef)
        return str(netlist), str(spef)

    def test_per_scenario_results_in_report(self, capsys, design_files, corners_file):
        netlist, spef = design_files
        status = main(
            [
                "timing", "--netlist", netlist, "--spef", spef,
                "--period", "5e-9", "--corners", corners_file,
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        names = [record["name"] for record in payload["scenarios"]]
        assert names == ["typical", "slow", "relaxed"]
        for record in payload["scenarios"]:
            assert set(record["worst_slack"]) == {
                "elmore", "upper_bound", "lower_bound",
            }
            assert record["verdict"] == "PASS"
        slow = payload["scenarios"][1]
        typical = payload["scenarios"][0]
        assert slow["worst_slack"]["upper_bound"] < typical["worst_slack"]["upper_bound"]
        assert payload["scenarios"][2]["clock_period"] == pytest.approx(1e-6)

    def test_overall_verdict_drives_exit_code(self, capsys, design_files, corners_file):
        netlist, spef = design_files
        status = main(
            [
                "timing", "--netlist", netlist, "--spef", spef,
                "--period", "1e-12", "--corners", corners_file,
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        # The relaxed 1us corner passes, but any failing corner fails the run.
        assert payload["scenarios"][2]["verdict"] == "PASS"
        assert payload["verdict"] == "FAIL"
        assert status == 1

    @pytest.mark.parametrize("engine", ["auto", "numpy", "contract"])
    def test_engine_flag_reaches_solver_with_identical_results(
        self, capsys, design_files, corners_file, engine
    ):
        """--engine pins the kernel backend; every backend reports alike."""
        from repro.parallel import last_selection

        netlist, spef = design_files
        base_args = [
            "timing", "--netlist", netlist, "--spef", spef,
            "--period", "5e-9", "--corners", corners_file,
        ]
        status = main(base_args)
        reference = json.loads(capsys.readouterr().out)
        assert status == 0
        status = main(base_args + ["--engine", engine])
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        record = last_selection()
        assert record["requested"] == (engine if engine != "auto" else "auto")
        if engine == "contract":
            assert record["engine"] == "contract"
        for got, want in zip(payload["scenarios"], reference["scenarios"]):
            for model, slack in want["worst_slack"].items():
                assert got["worst_slack"][model] == pytest.approx(
                    slack, rel=1e-12, abs=1e-21
                )

    def test_engine_requires_corners(self, capsys, design_files):
        netlist, _ = design_files
        with pytest.raises(SystemExit):
            main(
                [
                    "timing", "--netlist", netlist, "--period", "5e-9",
                    "--engine", "contract",
                ]
            )
        assert "--engine requires --corners" in capsys.readouterr().err

    def test_engine_native_is_not_a_choice(self, capsys, design_files, tmp_path):
        netlist, _ = design_files
        corners = tmp_path / "corners.json"
        corners.write_text('[{"name": "typ"}]')
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "timing", "--netlist", netlist, "--period", "5e-9",
                    "--corners", str(corners), "--engine", "native",
                ]
            )
        assert excinfo.value.code == 2
        assert "invalid choice: 'native'" in capsys.readouterr().err


class TestTimingStore:
    @pytest.fixture
    def design_files(self, tmp_path):
        design, parasitics = random_design(30, seed=5)
        netlist = tmp_path / "design.json"
        write_design(design, netlist)
        trees = {
            name: record.tree
            for name, record in parasitics.items()
            if record.tree is not None
        }
        spef = tmp_path / "design.spef"
        write_spef(trees, spef)
        return str(netlist), str(spef)

    def test_store_run_matches_in_ram_report(self, capsys, tmp_path, design_files):
        netlist, spef = design_files
        status = main(
            ["timing", "--netlist", netlist, "--spef", spef, "--period", "5e-9"]
        )
        reference = json.loads(capsys.readouterr().out)
        store_dir = str(tmp_path / "design.store")
        store_status = main(
            [
                "timing", "--netlist", netlist, "--spef", spef,
                "--period", "5e-9", "--store", store_dir,
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert store_status == status == 0
        assert payload["verdict"] == reference["verdict"]
        for model, slack in reference["worst_slack"].items():
            assert payload["worst_slack"][model] == pytest.approx(
                slack, rel=1e-12, abs=1e-21
            )
        import os

        assert os.path.exists(os.path.join(store_dir, "manifest.json"))

    def test_store_corner_sweep(self, capsys, tmp_path, design_files):
        netlist, spef = design_files
        corners = tmp_path / "corners.json"
        corners.write_text(json.dumps({
            "scenarios": [
                {"name": "typ"},
                {"name": "slow", "r_derate": 1.2, "c_derate": 1.2},
            ]
        }), encoding="utf-8")
        status = main(
            [
                "timing", "--netlist", netlist, "--spef", spef,
                "--period", "5e-9", "--corners", str(corners),
            ]
        )
        reference = json.loads(capsys.readouterr().out)
        store_status = main(
            [
                "timing", "--netlist", netlist, "--spef", spef,
                "--period", "5e-9", "--corners", str(corners),
                "--store", str(tmp_path / "d.store"),
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert store_status == status
        assert payload["verdict"] == reference["verdict"]
        for got, want in zip(payload["scenarios"], reference["scenarios"]):
            for model, slack in want["worst_slack"].items():
                assert got["worst_slack"][model] == pytest.approx(
                    slack, rel=1e-12, abs=1e-21
                )
