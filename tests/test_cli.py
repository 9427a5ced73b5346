import argparse
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lorenz_hulls import cli
from lorenz_hulls.cli import main
from lorenz_hulls.measures import measure_from_json_dict
from lorenz_hulls.sampling import case_rng

README = Path(__file__).resolve().parent.parent / "README.md"

SQUARE = {"dim": 2, "atoms": [[1.0, 0.0], [0.0, 1.0]], "complex": False}
DOUBLE = {"dim": 2, "atoms": [[2.0, 0.0], [0.0, 2.0]], "complex": False}
INCOME = {"dim": 2, "atoms": [[0.5, 0.25], [0.5, 0.75]], "complex": False}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in ("square", SQUARE), ("double", DOUBLE), ("income", INCOME):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    paths["empty"] = str(tmp_path / "empty.json")
    (tmp_path / "empty.json").write_text(json.dumps({"dim": 2, "atoms": []}))
    paths["bad"] = str(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_text("{nope")
    paths["d3"] = str(tmp_path / "d3.json")
    (tmp_path / "d3.json").write_text(json.dumps({"dim": 3, "atoms": [[1, 0, 0]]}))
    paths["tmp"] = tmp_path
    return paths


class TestHullCommand:
    def test_square_vertices(self, files, capsys):
        assert main(["hull", "-i", files["square"]]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows == ["0.0,0.0", "1.0,0.0", "1.0,1.0", "0.0,1.0"]

    def test_empty_measure_single_row(self, files, capsys):
        assert main(["hull", "-i", files["empty"]]) == 0
        assert capsys.readouterr().out.strip() == "0.0,0.0"

    def test_reach_table_in_3d(self, files, capsys):
        assert main(["hull", "-i", files["d3"], "--dirs", "5"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 5
        assert all(len(r.split(",")) == 4 for r in rows)

    def test_malformed_json_exit_2(self, files, capsys):
        assert main(["hull", "-i", files["bad"]]) == 2

    def test_unreadable_input_exit_2(self, files, capsys):
        # a missing file and a directory both fail to open
        for path in (files["tmp"] / "missing.json", files["tmp"]):
            assert main(["hull", "-i", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith(f"error: cannot read {path}: ")

    def test_complex_measure_exit_2(self, tmp_path, capsys):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps({"dim": 2, "atoms": [[1, 0, 0, 1]], "complex": True}))
        assert main(["hull", "-i", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} holds a complex measure where a real one is needed\n"

    def test_out_in_missing_directory_exit_2(self, files, capsys):
        out = files["tmp"] / "missing" / "hull.csv"
        assert main(["hull", "-i", files["square"], "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("io error: ")
        assert not out.parent.exists()

    @pytest.mark.parametrize("payload", [
        {"dim": 2, "atoms": 5},
        {"dim": 2, "atoms": None},
        {"dim": 2.7, "atoms": [[1.0, 0.0]]},
        {"dim": True, "atoms": [[1.0]]},
        {"dim": "2", "atoms": [[1.0, 0.0]]},
    ])
    def test_malformed_schema_exit_2(self, tmp_path, capsys, payload):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(payload))
        assert main(["hull", "-i", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_overflowing_mass_exit_2(self, files, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 2, "atoms": [[1e308, 1e308], [1e308, 1e308]]}))
        for argv in (["hull", "-i", str(path)],
                     ["hausdorff", str(path), files["square"]],
                     ["include", files["square"], str(path)],
                     ["include", str(path), files["square"]]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.splitlines()) == 1

    def test_huge_dimension_exit_2_before_allocating(self, tmp_path, capsys, monkeypatch):
        # 200 directions of 1e8 coordinates would be 149 GiB; the stub
        # generator fails the test instead of allocating if the guard lets
        # the request through
        class NoDraws:
            def standard_normal(self, shape):
                raise AssertionError(f"drew {shape} past the size guard")

        monkeypatch.setattr("lorenz_hulls.cli.case_rng", lambda *args: NoDraws())
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"dim": 100000000, "atoms": []}))
        assert main(["hull", "-i", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "capped" in captured.err


def _subparsers():
    parser = cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# every value each subcommand lets a caller set: 41 in all
SURFACE = {
    "hull": {"input", "out", "seed", "dirs"},
    "product": {"a", "b", "out"},
    "sum": {"a", "b", "out"},
    "include": {"inner", "outer", "out", "mode", "tol", "seed", "dirs"},
    "hausdorff": {"a", "b", "out", "seed", "dirs"},
    "gini": {"input", "out"},
    "curve": {"input", "out"},
    "discretize": {"input", "out", "delta", "reps"},
    "achieve": {"input", "out", "target", "tol"},
    "skeleton": {"input", "out"},
    "verify": {"suite", "seed", "scale", "workers", "out"},
}

# a call per subcommand that exits 0 on the fixture files
WORKING = {
    "hull": ["hull", "-i", "square"],
    "product": ["product", "square", "double"],
    "sum": ["sum", "square", "double"],
    "hausdorff": ["hausdorff", "square", "double"],
    "gini": ["gini", "-i", "income"],
    "curve": ["curve", "-i", "income"],
    "discretize": ["discretize", "-i", "square", "--delta", "0.5"],
    "achieve": ["achieve", "-i", "square", "--target", "0.5,0.5"],
    "skeleton": ["skeleton", "-i", "square"],
}

# the options these subcommands used to parse and then ignore
UNREAD = (
    [("hull", "--tol", "1e-3"), ("hausdorff", "--tol", "1e-3"),
     ("achieve", "--seed", "1"), ("achieve", "--dirs", "5")]
    + [(command, option, value)
       for command in ("product", "sum", "gini", "curve", "discretize", "skeleton")
       for option, value in (("--tol", "1e-3"), ("--seed", "1"), ("--dirs", "5"))]
)


class TestOptionSurface:
    def test_parser_matches_table(self):
        subparsers = _subparsers()
        assert list(subparsers) == list(cli._COMMANDS) == list(SURFACE)
        for name, (_, _, inputs, options) in cli._COMMANDS.items():
            dests = {a.dest for a in subparsers[name]._actions} - {"help"}
            assert dests == set(inputs) | set(options) == SURFACE[name], name
        assert sum(map(len, SURFACE.values())) == 41

    @pytest.mark.parametrize("command, option, value", UNREAD)
    def test_unread_option_exit_2(self, files, capsys, command, option, value):
        argv = [files.get(arg, arg) for arg in WORKING[command]]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + [option, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option} {value}" in captured.err

    @pytest.mark.parametrize("argv", [
        ["hull", "-i", "square"],
        ["hull", "-i", "d3"],
        ["include", "square", "double", "--mode", "exact2d"],
        ["include", "square", "double", "--mode", "sampled"],
        ["hausdorff", "square", "double"],
    ])
    def test_negative_dirs_exit_2(self, files, capsys, argv):
        # --dirs 0 stays allowed; a negative count is a usage error even
        # where the planar exact routes draw no direction
        argv = [files.get(arg, arg) for arg in argv]
        assert main(argv + ["--dirs", "0"]) == 0
        capsys.readouterr()
        assert main(argv + ["--dirs", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --dirs: invalid nonnegative int value: '-1'" in captured.err

    @pytest.mark.parametrize("argv", [
        ["hull", "-i", "square"],
        ["hull", "-i", "d3"],
        ["include", "square", "double", "--mode", "exact2d"],
        ["include", "square", "double", "--mode", "sampled"],
        ["hausdorff", "square", "double"],
        ["hausdorff", "d3", "d3"],
        ["verify", "--suite", "gini"],
    ])
    def test_negative_seed_exit_2(self, files, capsys, argv):
        # a usage error whether or not the route draws directions
        argv = [files.get(arg, arg) for arg in argv]
        assert main(argv + ["--seed", "0"]) == 0
        capsys.readouterr()
        assert main(argv + ["--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: invalid nonnegative int value: '-1'" in captured.err

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_workers_below_one_exit_2(self, capsys, value):
        # checked before any suite runs
        assert main(["verify", "--suite", "gini", "--workers", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --workers: invalid positive int value: '{value}'" in captured.err

    def test_discretize_d_prefix_is_delta(self, files, capsys):
        assert main(["discretize", "-i", files["square"], "--d", "0.5"]) == 0
        assert json.loads(capsys.readouterr().out)["delta"] == 0.5


class TestReadme:
    def test_command_lines_exit_as_documented(self, tmp_path, monkeypatch, capsys):
        # every `lorenz` line of the README's command-line block, on fixture
        # files of the names it uses; "# exit N" in a comment documents a
        # nonzero exit code
        block = README.read_text().split("## Command line", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("lorenz ")]
        assert len(lines) >= len(SURFACE)
        fine = case_rng(0, "test.readme.fine").normal(size=(300, 2))
        for name, payload in (("square", SQUARE), ("a", SQUARE), ("b", DOUBLE),
                              ("inner", SQUARE), ("outer", DOUBLE), ("income", INCOME),
                              ("fine", {"dim": 2, "atoms": fine.tolist()})):
            (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        monkeypatch.chdir(tmp_path)
        for line in lines:
            documented = re.search(r"# exit (\d)", line)
            expected = int(documented.group(1)) if documented else 0
            assert main(shlex.split(line, comments=True)[1:]) == expected, line
            assert "Traceback" not in capsys.readouterr().err

    def test_option_table_matches_parser(self):
        # the README's table of options names each subcommand's flags
        text = README.read_text()
        rows = re.findall(r"^\| ((?:`\w+`(?:, )?)+) \|(.*)\|$", text, flags=re.M)
        documented = {}
        for names, rest in rows:
            for name in re.findall(r"`(\w+)`", names):
                documented[name] = set(re.findall(r"--\w+", rest)) | {"--out", "--help"}
        for name, subparser in _subparsers().items():
            flags = {f for a in subparser._actions for f in a.option_strings if f.startswith("--")}
            assert documented.get(name) == flags, name


class TestProductAndSum:
    def test_product_identity(self, files, tmp_path, capsys):
        ident = tmp_path / "ident.json"
        ident.write_text(json.dumps({"dim": 2, "atoms": [[1.0, 1.0]]}))
        assert main(["product", files["square"], str(ident)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["atoms"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_sum_concatenates(self, files, capsys):
        assert main(["sum", files["square"], files["double"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["atoms"] == [[1, 0], [0, 1], [2, 0], [0, 2]]

    def test_dimension_mismatch_exit_2(self, files, capsys):
        assert main(["product", files["square"], files["d3"]]) == 2

    def test_round_trip_through_files(self, files, tmp_path, capsys):
        out = tmp_path / "prod.json"
        assert main(["product", files["square"], files["double"], "-o", str(out)]) == 0
        measure = measure_from_json_dict(json.loads(out.read_text()))
        assert measure.atom_count == 4


class TestIncludeCommand:
    def test_included_exit_0(self, files, capsys):
        assert main(["include", files["square"], files["double"]]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "included"

    def test_excluded_exit_1(self, files, capsys):
        assert main(["include", files["double"], files["square"]]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "excluded"
        assert payload["witness"] is not None

    def test_sampled_past_the_sign_vector_guard_exit_2(self, tmp_path, capsys):
        # in n = 20 the sign vectors alone would be 2^20 x 20 coordinates
        paths = []
        for k in (0, 1):
            paths.append(tmp_path / f"wide{k}.json")
            paths[-1].write_text(json.dumps({"dim": 20, "atoms": np.eye(20)[k : k + 2].tolist()}))
        assert main(["include", str(paths[0]), str(paths[1]), "--mode", "sampled"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: direction sets capped at")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_bad_tol_exit_2(self, files, capsys, tol):
        # a tolerance that is not finite and positive decides nothing
        assert main(["include", files["double"], files["square"], f"--tol={tol}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be finite and positive")
        assert len(captured.err.splitlines()) == 1


class TestHausdorffCommand:
    def test_identical_files(self, files, capsys):
        assert main(["hausdorff", files["square"], files["square"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"] == 0.0
        assert payload["mode"] == "exact"

    def test_known_distance(self, files, capsys):
        assert main(["hausdorff", files["square"], files["double"]]) == 0
        assert json.loads(capsys.readouterr().out)["distance"] == pytest.approx(2.0)

    def test_exact_in_3d_with_witness_point(self, files, tmp_path, capsys):
        # the unit cube against the segment [0, e1]: the cube's edge
        # x2 = x3 = 1 lies at 1-norm distance 2 from the segment
        cube = tmp_path / "cube.json"
        cube.write_text(json.dumps({"dim": 3, "atoms": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        assert main(["hausdorff", str(cube), files["d3"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"distance": 2.0, "mode": "exact", "witness": [0.0, 1.0, 1.0]}


    def test_exact_in_4d_at_extreme_scale(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        big.write_text(json.dumps(
            {"dim": 4, "atoms": [[1e100, 2e100, 0, 1e100], [3e100, 0, 1e100, 1e100]]}))
        unit = tmp_path / "unit.json"
        unit.write_text(json.dumps({"dim": 4, "atoms": [[1, 0, 0, 0]]}))
        assert main(["hausdorff", str(big), str(unit)]) == 0
        payload = json.loads(capsys.readouterr().out)
        # the witness (4, 2, 1, 2)e100 is farthest from the short segment
        assert payload["mode"] == "exact"
        assert payload["distance"] == pytest.approx(9e100, rel=1e-12)

    def test_past_the_sign_vector_guard_exit_2(self, tmp_path, capsys):
        # in n = 20 the sampled distance's sign vectors alone would be
        # 2^20 x 20 coordinates
        paths = []
        for k in (0, 1):
            paths.append(tmp_path / f"wide{k}.json")
            atoms = np.eye(20)[2 * k : 2 * k + 2].tolist()
            paths[-1].write_text(json.dumps({"dim": 20, "atoms": atoms}))
        assert main(["hausdorff", str(paths[0]), str(paths[1])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: direction sets capped at")

    def test_empty_hulls_in_a_huge_dimension_exit_2(self, tmp_path, capsys):
        # the arrangement guard refuses n = 2^40 without a 2^(2^40) integer
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 1 << 40, "atoms": []}))
        assert main(["hausdorff", str(path), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: direction sets capped at")


class TestGiniAndCurve:
    def test_gini_fixture_formatting(self, files, capsys):
        assert main(["gini", "-i", files["income"]]) == 0
        assert capsys.readouterr().out == "0.250000000000\n"

    def test_curve_emits_csv_and_svg(self, files, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", "-i", files["income"], "-o", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows == ["0.0,0.0", "0.5,0.25", "1.0,1.0"]
        svg = (tmp_path / "curve.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("name", ["curve.svg", "curve.SVG"])
    def test_out_that_the_svg_would_overwrite_exit_2(self, files, tmp_path, capsys, name):
        # the SVG next to --out would land on --out itself and replace the CSV
        before = sorted(tmp_path.iterdir())
        assert main(["curve", "-i", files["income"], "-o", str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: --out {tmp_path / name} names the SVG")
        assert sorted(tmp_path.iterdir()) == before

    def test_negative_atom_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "neg.json"
        bad.write_text(json.dumps({"dim": 2, "atoms": [[-1.0, 0.5]]}))
        assert main(["gini", "-i", str(bad)]) == 2


class TestDiscretizeCommand:
    def test_report_fields(self, files, tmp_path, capsys):
        out = tmp_path / "disc.json"
        code = main(
            ["discretize", "-i", files["square"], "--delta", "0.5", "--reps", "2",
             "-o", str(out)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["K"] == 32 and report["N"] == 2
        assert report["measured_distance"] <= report["bound"]
        approx = measure_from_json_dict(json.loads(out.read_text()))
        assert approx.atom_count == 4


    @pytest.mark.parametrize("extra, message", [
        (["--delta", "0.5", "--reps", "1000000000000000"],
         "error: discretized measures capped at 16777216 coordinates, "
         "got 2 cells x 1000000000000000 reps x 2\n"),
        (["--delta", "1e-310"], "error: delta 1e-310 puts 2n/delta above 2**53\n"),
    ], ids=["reps", "delta"])
    def test_hostile_sizes_exit_2(self, files, capsys, extra, message):
        assert main(["discretize", "-i", files["income"], *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message


class TestAchieveCommand:
    def test_achievable(self, files, capsys):
        assert main(["achieve", "-i", files["square"], "--target", "0.5,0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == [0.5, 0.5]
        assert payload["residual"] <= 1e-9

    def test_not_in_hull_exit_1(self, files, capsys):
        assert main(["achieve", "-i", files["square"], "--target", "3,3"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "not_in_hull"


    @pytest.mark.parametrize("target", ["nan,1", "inf,0", "0.5,-inf"])
    def test_non_finite_target_exit_2(self, files, capsys, target):
        assert main(["achieve", "-i", files["square"], f"--target={target}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: target contains a NaN or infinite coordinate\n"

    def test_cold_achieve_imports_no_scipy(self, files):
        # a 3-D, 6-atom measure is decided with no LP, so the cold
        # process never imports scipy (``-X importtime`` lists
        # every module imported on stderr)
        rng = case_rng(3, "test.cli.achieve.cold")
        atoms = rng.uniform(-1.0, 1.0, (6, 3))
        path = files["tmp"] / "achieve3.json"
        path.write_text(json.dumps({"dim": 3, "atoms": atoms.tolist()}))
        target = rng.uniform(0.2, 0.8, 6) @ atoms
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "lorenz_hulls.cli", "achieve",
             "-i", str(path), "--target=" + ",".join(repr(float(x)) for x in target)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
        assert "numpy" in imported
        assert not [name for name in imported if name.startswith("scipy")]
        lam = np.array(json.loads(proc.stdout)["lambda"])
        assert np.abs(lam @ atoms - target).sum() <= 1e-12

    def test_overflowing_target_exit_2(self, files, capsys):
        # the 1-norm of (1e308, 1e308) overflows; that of (1.7e308, 0) does not
        assert main(["achieve", "-i", files["square"], "--target=1e308,1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: target has a total 1-norm mass that overflows\n"
        assert main(["achieve", "-i", files["square"], "--target=1.7e308,0"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"] == "not_in_hull"
        assert captured.err == ""

    def test_bad_tol_exit_2(self, files, capsys):
        assert main(["achieve", "-i", files["square"], "--target=0.5,0.5", "--tol=nan"]) == 2
        assert capsys.readouterr().err == "error: tol must be finite and positive, got nan\n"


class TestSkeletonCommand:
    def test_square_points(self, files, capsys):
        assert main(["skeleton", "-i", files["square"]]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows == ["0.0,0.0", "0.0,1.0", "1.0,0.0", "1.0,1.0"]


    def test_size_guard_exit_2(self, tmp_path, capsys):
        # 2^20 subset sums in n = 17 pass the 2^24-coordinate guard
        path = tmp_path / "wide.json"
        atoms = case_rng(0, "test.cli.skeleton").normal(size=(20, 17))
        path.write_text(json.dumps({"dim": 17, "atoms": atoms.tolist()}))
        assert main(["skeleton", "-i", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: skeletons capped at 16777216 coordinates, got 2^20 x 17\n"


class TestVerifyCommand:
    def test_single_suite_exit_0(self, capsys):
        assert main(["verify", "--suite", "identity", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("suite identity:")
        assert "failures=0" in out

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown suite 'nope'; pick one of measure, complex, roundtrip, "
            "geometry, hausdorff, oracle, identity, algebra, well_definedness, "
            "inclusion, gini, curve, partition, discretization, product_bound, "
            "skeleton_bound, zonoid or all\n"
        )

    def test_all_suites_check_counts(self, capsys):
        # cases= counts checks, not cases: pinned for every suite at seed 7
        assert main(["verify", "--suite", "all", "--seed", "7"]) == 0
        counts = [
            ("measure", 160), ("complex", 25), ("roundtrip", 30), ("geometry", 50),
            ("hausdorff", 15), ("oracle", 40), ("identity", 20), ("algebra", 25),
            ("well_definedness", 25), ("inclusion", 25), ("gini", 16), ("curve", 10),
            ("partition", 7), ("discretization", 6), ("product_bound", 3),
            ("skeleton_bound", 10), ("zonoid", 34),
        ]
        want = [f"suite {name}: cases={n} failures=0" for name, n in counts]
        want.append("total: suites=17 cases=501 failures=0")
        assert capsys.readouterr().out == "\n".join(want) + "\n"

    def test_failing_suite_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr("lorenz_hulls.suites.gini", lambda measure: 0.0)
        assert main(["verify", "--suite", "gini", "--seed", "7"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "suite gini: cases=16 failures=16"
        assert lines[1] == "  FAIL case=0 seed=7 worked fixture expected 0.25, got 0.0"
        assert [line.split()[:2] for line in lines[1:-1]] == [
            ["FAIL", f"case={case}"] for case in range(16)
        ]
        assert lines[-1] == "total: suites=1 cases=16 failures=16"

    def test_import_leaves_suites_and_pools_unloaded(self):
        # only verify pays for the suite table and the process pool
        code = (
            "import sys, lorenz_hulls.cli\n"
            "print(sorted(m for m in sys.modules if m == 'lorenz_hulls.suites'"
            " or m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_deterministic_across_runs(self, capsys):
        assert main(["verify", "--suite", "algebra", "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--suite", "algebra", "--seed", "11"]) == 0
        second = capsys.readouterr().out
        assert first == second
