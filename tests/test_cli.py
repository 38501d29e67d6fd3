"""CLI surface tests: schemas, determinism, exit codes."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import fiblie
from fiblie import verify
from fiblie.basis import colour, enumerate_W_upto
from fiblie.cli import main
from fiblie.figures import figure1
from fiblie.grading import gr
from fiblie.series import hilbert_recursive
from test_answers import load_answers_script


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_eval_and_bracket():
    code, out = run_cli("eval", "[v1,v4]")
    assert code == 0 and out.strip() == "t0*t1*v5"
    code, out = run_cli("bracket", "v2", "t0*v4")
    assert code == 0 and out.strip() == "t0*t1*v5"
    code, out = run_cli("eval", "[v2,v1^3]", "--format", "json")
    assert code == 0 and json.loads(out) == {"element": "0"}


def test_readme_cli_examples():
    # every `fiblie ...  # -> result` line of README's CLI block, run in process
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [
        (shlex.split(command), result.split()[0])
        for command, result in re.findall(r"^fiblie (.*?)\s+# -> (.*)$", block, re.M)
    ]
    assert len(examples) == 3
    for argv, expected in examples:
        code, out = run_cli(*argv)
        assert (code, out) == (0, expected + "\n"), argv


def test_eval_error_exit_code():
    code, _ = run_cli("eval", "v1^3")
    assert code == 2


def test_eval_rejects_tail_index_beyond_ceiling():
    code, out = run_cli("eval", "t200*v3")
    assert code == 2 and out == ""
    code, out = run_cli("eval", "t2*t2*t200*v3")
    assert code == 2
    code, out = run_cli("eval", "t2*t2*v3")
    assert code == 0 and out.strip() == "0"


def test_basis_csv_schema_and_determinism():
    code, out1 = run_cli("basis", "--max-n", "6")
    code2, out2 = run_cli("basis", "--max-n", "6")
    assert code == code2 == 0 and out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert len(rows) == 1 + 1 + 1 + 2 + 4 + 8
    assert rows[0] == {"length": "1", "tail": "1", "pivot": "1", "colour": "red"}
    colours = {r["colour"] for r in rows}
    assert colours <= {"red", "green", "blue"}


def test_basis_json_mirror():
    code, out = run_cli("basis", "--max-n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["rows"][0] == {"length": 1, "tail": "1", "pivot": 1, "colour": "red"}


def test_nil_scan_schema():
    code, out = run_cli("nil-scan", "--min", "1", "--max", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["n"] for r in rows} == {"1", "2", "3"}
    for r in rows:
        assert int(r["index"]) <= int(r["bound"])


def test_hilbert_recursive_matches_enumerated():
    # the CLI enumerates; the functional recursion is its oracle.  Degree 0
    # needs no level at all: both give the header only
    for args, upto in ((("--degree", "12", "--upto", "12"), 12), (("--degree", "0"), 2)):
        h = hilbert_recursive(upto, int(args[1]))
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["a", "b", "coefficient"])
        writer.writerows([a, b, c] for (a, b), c in h.items_sorted())
        code, out = run_cli("hilbert", *args)
        assert code == 0 and out == expected.getvalue()


def test_presentation_exit_code():
    code, out = run_cli("presentation", "--max-degree", "7")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["quotient"] for r in rows] == ["2", "1", "2", "2", "2", "2", "4"]


def test_strip_exact_serialization():
    code, out = run_cli("strip", "--max-n", "3")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["wt_exact"] == "0+1*L"
    assert rows[0]["swt_exact"] == "1+-1*L"


def test_homology_subcommand():
    code, out = run_cli("homology", "--max-total-degree", "5")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    dims = {(r["n"], r["a"], r["b"]): r["dim"] for r in rows}
    assert dims[("1", "1", "0")] == "1"
    assert dims[("2", "3", "1")] == "1"


def test_homology_single_n_skips_the_euler_check():
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("homology", "--n", "2", "--max-total-degree", "10")
    assert code == 0
    assert err.getvalue() == "euler-crosscheck: skipped (--n)\n"
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and {r["n"] for r in rows} == {"2"}


def test_figures_outputs(tmp_path: Path):
    for which, flag, value in ((1, "--max-n", "7"), (2, "--max-n", "8"),
                               (3, "--max-n", "7"), (4, "--degree", "12")):
        code, out = run_cli(
            "figures", "--which", str(which), flag, value, "--outdir", str(tmp_path)
        )
        assert code == 0
        csv_path = tmp_path / f"fig{which}.csv"
        svg_path = tmp_path / f"fig{which}.svg"
        assert csv_path.exists() and svg_path.exists()
        assert svg_path.read_text().startswith("<svg")
        assert len(csv_path.read_text().splitlines()) > 1


def test_figure1_cells_match_the_monomial_walk(tmp_path: Path):
    # oracle: fold every monomial of W_{<=12} into its cell by basis.colour
    cells = {}
    for level in enumerate_W_upto(12):
        for m in level:
            cell = cells.setdefault(tuple(gr(m)), [0, 0, 0])
            c = colour(m)
            cell[1 if c == "blue" else 0] += 1
            cell[2] |= c == "red"
    figure1(12, tmp_path)
    with (tmp_path / "fig1.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    got = {
        (int(r["a"]), int(r["b"])): [int(r["green"]), int(r["blue"]), int(r["pivot"])]
        for r in rows
    }
    assert got == cells
    assert all(int(r["count"]) == int(r["green"]) + int(r["blue"]) for r in rows)


def test_euler_csv():
    code, out = run_cli("euler", "--degree", "8")
    rows = list(csv.DictReader(io.StringIO(out)))
    coeffs = {(int(r["a"]), int(r["b"])): int(r["coefficient"]) for r in rows}
    assert coeffs[(0, 0)] == 1 and coeffs[(1, 0)] == -1 and coeffs[(3, 1)] == 1


def test_verify_json_records():
    seed = verify._DEFAULT_SEED
    code, out = run_cli("verify", "relations", "--format", "json", "--seed", "1")
    assert code == 0
    assert verify._DEFAULT_SEED == seed  # --seed holds for its own command only
    (record,) = json.loads(out)
    assert record["suite"] == "relations" and record["name"] == "03-relations"
    assert record["ok"] is True and record["diagnostic"] is False
    assert record["seconds"] >= 0 and "vanish" in record["detail"]


def test_closed_pipe_exits_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(fiblie.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fiblie.cli", "basis", "--max-n", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"length,tail,pivot,colour\r\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr


@pytest.mark.parametrize("argv", load_answers_script().REFUSALS)
def test_input_errors_exit_2_without_traceback(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(fiblie.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "fiblie.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
