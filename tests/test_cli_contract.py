"""Every argv `cli.main` accepts ends in a report or a typed error object.

Hypothesis builds argv for every subcommand from a grammar of valid and
hostile tokens: non-finite, huge, tiny, negative and non-numeric numbers;
spheres of high dimension; missing, directory, non-UTF-8, malformed and
valid files; small sizes and sizes past the resource ceilings.  No
exception may escape, the exit code is 0-3, and whatever is printed parses
as JSON without NaN (or, for CSV tables, holds no nan).  Infinity stays
allowed: `frequency` reports I, D and J past the float range as Infinity.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coneh.cli import EXIT_USAGE, main

HOSTILE = ["nan", "inf", "-inf", "1e308", "1e12", "-1", "0", "abc"]
TINY = HOSTILE + ["1e-300", "5e-324", "1e-160"]  # powers past the float range
HOSTILE_SIZES = [["2048", "4096", "8192"], ["-1", "-2", "-4"],
                 ["8", "12", "16"], ["8"], ["abc"]]  # a grid past the ceiling


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths by role and kind; 'out' is a writable --output path."""
    root = tmp_path_factory.mktemp("contract")
    texts = {
        "spectrum.json": json.dumps({
            "ambient_dim": 2, "measure": math.pi, "truncation_bound": 40.0,
            "entries": [{"lambda": 0.0, "mult": 1}, {"lambda": 4.0, "mult": 2},
                        {"lambda": 16.0, "mult": 2}]}),
        "harmonic.json": json.dumps({"n": 2, "modes": [
            {"alpha": 1.0, "c": 1.0, "mode_id": 1},
            {"alpha": 2.0, "c": 0.5, "mode_id": 4}]}),
        "huge.json": json.dumps({"n": 2, "modes": [
            {"alpha": 1e308, "c": 1.0, "mode_id": 1},
            {"alpha": 1.0, "c": 1.0, "mode_id": 2}]}),
        "density.json": json.dumps([0.5, 0.6, 0.55, 0.45]),
        "density.csv": "0,0.5\n1,0.6\n2,0.55\n3,0.45\n",
        "negative.json": "[0.5, -1, 0.5, 0.5]",
        "overflow.json": json.dumps([1e308] * 4),
        "malformed.json": '{"n": 2, "modes": [',
        "deep.json": "[" * 100_000,
        "digits.json": "[" + "1" * 5000 + "]",
        "long.csv": "0," + "1" * 200_000 + "\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    (root / "utf16.json").write_bytes(b"\xff\xfe[\x001\x00]\x00")
    (root / "utf16.csv").write_bytes(b"\xff\xfe0\x00,\x001\x00")
    (root / "dir.json").mkdir()
    paths = {
        "spectrum": ["spectrum.json"],
        "harmonic": ["harmonic.json", "huge.json"],
        "density": ["density.json", "density.csv"],
        "hostile": ["missing.json", "dir.json", "utf16.json",
                    "malformed.json", "deep.json", "digits.json"],
        "hostile_density": ["negative.json", "overflow.json", "utf16.csv",
                            "long.csv", "missing.json", "dir.json",
                            "utf16.json", "malformed.json", "deep.json",
                            "digits.json"],
        "output": ["out.txt", "dir.json", "missing/out.txt"],
    }
    return root, {role: [str(root / name) for name in names]
                  for role, names in paths.items()}


def _reject_nan(constant):
    if constant == "NaN":
        pytest.fail("NaN in the output")
    return float(constant)


@st.composite
def argv(draw, paths):
    """argv for one subcommand; each value is valid three times in four."""
    def pick(valid, hostile=HOSTILE):
        return draw(st.sampled_from(valid if draw(st.integers(0, 3))
                                    else hostile))

    def values(valid, hostile=HOSTILE):
        return [pick(valid, hostile) for _ in range(draw(st.integers(1, 3)))]

    command = draw(st.sampled_from([
        "spectrum", "count", "hk", "weyl", "asymptotic", "collapsed",
        "frequency", "three-circles", "verify-grid", "selftest"]))
    args = [command]
    if command in ("spectrum", "count", "hk", "weyl", "asymptotic",
                   "collapsed"):
        # cross-sections beside the cone dimension n they go with
        sections = [("sphere:2", "3"), ("sphere:4", "5"), ("circle:3", "2"),
                    ("circle:1e-300", "2"), ("circle:5e-324", "2"),
                    ("sphere:400", "401"), ("sphere:1000", "1001"),
                    ("circle:6.283185307179586", "2"),
                    *((f"spectrum:{p}", "2") for p in paths["spectrum"]),
                    *((f"metric-circle:{p}", "2") for p in paths["density"])]
        bad = ["sphere:abc", "sphere:0", "circle:nan", "circle:-1",
               "circle:1e308", "torus:1", "sphere", "sphere:400",
               "sphere:1001", "sphere:100000",
               *(f"spectrum:{p}" for p in paths["hostile"]),
               *(f"metric-circle:{p}" for p in paths["hostile_density"])]
        section, n = draw(st.sampled_from(sections))
        args += ["--cross-section", pick([section], bad)]
        dim = ["--n", pick([n], ["-1", "0", "abc", "2.5", "1000000000000"])]
    if command == "spectrum":
        args += ["--lambda-max",
                 pick(["9.5", "30"], ["nan", "inf", "-1", "0", "abc", "1e308",
                                      "1e18"])]  # 1e18 is past the ceiling
    elif command in ("count", "weyl"):
        args += ["--lambda", *values(["0.5", "6", "30", "1e12"], TINY)]
        args += dim if command == "weyl" else []
    elif command == "hk":
        args += dim + draw(st.sampled_from([["--k", pick(["2.5", "7", "1e12"])],
                                            ["--k-max", pick(["2.5", "7"])]]))
    elif command == "asymptotic":
        args += dim + ["--k", *values(["2.5", "7", "100.5"], TINY)]
    elif command == "collapsed":
        m = dim[1]
        args += ["--m", m, "--n", pick([m, str(int(m) + 1)] if m.isdigit()
                                       else [m]), "--k", pick(["2.5", "7"])]
    elif command in ("frequency", "three-circles"):
        args += ["--harmonic", pick(paths["harmonic"], paths["hostile"]),
                 "--s", *values(["0.5", "1", "2"])]
        if command == "three-circles":
            args += ["--k", pick(["2", "7"])]
    elif command == "verify-grid":
        args += ["--mode", *(pick([v]) for v in draw(st.sampled_from(
                     [["1", "1", "1"], ["2", "2", "0.5"], ["1.5", "2", "1"]]))),
                 "--resolutions", *pick([["4", "8", "16"], ["32", "64", "128"],
                                         ["3", "6", "12", "24"]], HOSTILE_SIZES)]
        if draw(st.booleans()):
            args += ["--length", pick(["6.283185307179586", "3.14"])]
        if draw(st.booleans()):
            args += ["--window", pick(["0.5", "0.1"]), pick(["1.5", "1"])]
    elif command == "selftest" and draw(st.booleans()):
        args += ["--seed", pick(["0", "42"], ["-1", "abc", "2.5"])]
    if draw(st.booleans()):
        args += ["--format", draw(st.sampled_from(["json", "csv"]))]
    if draw(st.booleans()):
        args += ["--output", pick(paths["output"][:1], paths["output"][1:])]
    return args


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_argv_ends_in_a_report_or_an_error_object(files, data):
    root, paths = files
    args = data.draw(argv(paths))
    out_file = root / "out.txt"
    out_file.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(args)
    assert code in (0, 1, 2, 3)
    text = stdout.getvalue()
    if not text and out_file.exists():
        text = out_file.read_text()
    if not text:
        # only argparse rejects without a report or an error object
        assert code == EXIT_USAGE and "usage:" in stderr.getvalue()
        return
    if not text.startswith("{"):  # a CSV table
        assert "--format" in args
        assert "nan" not in text.replace("\n", ",").split(",")
        return
    doc = json.loads(text, parse_constant=_reject_nan)
    assert doc["schema"] == "coneh/1"
    if "error" in doc:
        assert code != 0 and doc["error"]["exit_code"] == code
    else:
        assert code in (0, 3)
