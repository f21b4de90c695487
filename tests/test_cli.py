"""Command-line interface: formats, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finsleroid
from finsleroid.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_euclidean_norm(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--g", "0", "--vector", "3,4,0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == pytest.approx(5.0, abs=1e-14)
    assert payload["q"] == pytest.approx(5.0, abs=1e-14)
    assert payload["j"] == 1.0


def test_eval_axis_phi(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--g", "1", "--vector", "0,0,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"] == pytest.approx(math.pi / 2, abs=1e-15)
    assert payload["cartan"] is None  # axis: chart closed forms undefined


def test_eval_determinant_identity(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--g", "1.2", "--vector", "0.4,-0.7,0.9", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["det_metric"] == pytest.approx(payload["det_identity"], rel=1e-12)
    assert payload["cartan"]["c_p_c_p"] > 0.0


def test_eval_diag_metric(capsys):
    code, out, _ = run_cli(
        capsys,
        "eval", "--g", "0", "--metric", "diag:2,1", "--vector", "1,1,0", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["q"] == pytest.approx(math.sqrt(3.0), abs=1e-14)


def test_eval_metric_file(tmp_path, capsys):
    path = tmp_path / "metric.txt"
    path.write_text("2\n1.5 0.1\n0.1 0.8\n")
    code, out, _ = run_cli(
        capsys,
        "eval", "--g", "0.5", "--metric", f"file:{path}", "--vector", "1,0,1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["q"] == pytest.approx(math.sqrt(1.5), abs=1e-12)


def test_geodesic_csv_consumer(capsys):
    code, out, _ = run_cli(
        capsys,
        "geodesic", "--g", "1.2", "--t1", "1,0,0.3", "--t2", "0.1,0.9,0.5",
        "--samples", "24", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    meta = {}
    rows = []
    for line in lines:
        if line.startswith("#"):
            key, val = line[1:].strip().split("=")
            meta[key] = float(val)
        elif not line.startswith("s,"):
            rows.append([float(x) for x in line.split(",")[:-1]])
    assert len(rows) == 25
    a, b = meta["a"], meta["b"]
    t1 = np.array([1.0, 0.0, 0.3])
    t2 = np.array([0.1, 0.9, 0.5])
    assert np.allclose(rows[0][1:4], t1, atol=1e-12)
    assert np.allclose(rows[-1][1:4], t2, atol=1e-12)
    for row in rows:
        s = row[0]
        t = np.array(row[1:4])
        assert t @ t == pytest.approx(a * a + 2 * b * s + s * s, abs=1e-11)


def test_geodesic_straight_at_g_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "geodesic", "--g", "0", "--t1", "1,0", "--t2", "0,1", "--samples", "8",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chord"]["b"] == pytest.approx(-1 / math.sqrt(2), abs=1e-14)
    pts = np.array([row["t"] for row in payload["samples"]])
    t1, t2 = pts[0], pts[-1]
    for lam, p in zip(np.linspace(0, 1, 9), pts):
        assert np.allclose(p, t1 + lam * (t2 - t1), atol=1e-12)


def test_geodesic_pullback_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        "geodesic", "--g", "0.8", "--t1", "1,0,0", "--t2", "0,1,0.4",
        "--samples", "4", "--pullback", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert all("r" in row for row in payload["samples"])


GEODESIC_ARGV = ["geodesic", "--g", "1.2", "--t1", "1,0,0.3", "--t2", "0.1,0.9,0.5"]

GOLDEN_CSV = """\
# g=1.2
# a=1.044030650891055
# b=-0.7773791689325019
# delta_s=1.541786372123437
# alpha=1.6714823444895133
# s_end=1.03440804327886
s,t1,t2,t3,in_segment
0.0,1.0,0.0,0.3,1
0.7708931860617185,0.470264605867541,0.38437293181769716,0.3418074683761708,1
1.541786372123437,0.1,0.9,0.5,1
"""

GOLDEN_JSON = """\
{
  "chord": {
    "g": 1.2,
    "a": 1.044030650891055,
    "b": -0.7773791689325019,
    "delta_s": 1.541786372123437,
    "alpha": 1.6714823444895133,
    "s_end": 1.03440804327886
  },
  "samples": [
    {
      "s": 0.0,
      "t": [
        1.0,
        0.0,
        0.3
      ],
      "in_segment": true
    },
    {
      "s": 1.541786372123437,
      "t": [
        0.1,
        0.9,
        0.5
      ],
      "in_segment": true
    }
  ]
}
"""


def test_geodesic_golden_output(capsys):
    assert run_cli(capsys, *GEODESIC_ARGV, "--samples", "2", "--format", "csv")[1] == GOLDEN_CSV
    assert run_cli(capsys, *GEODESIC_ARGV, "--samples", "1", "--format", "json")[1] == GOLDEN_JSON


def test_geodesic_pullback_formats(capsys):
    argv = [*GEODESIC_ARGV, "--samples", "12", "--pullback", "--format"]
    code, out, _ = run_cli(capsys, *argv, "json")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert [list(row) for row in doc["samples"]] == [["s", "t", "in_segment", "r"]] * 13
    code, out, _ = run_cli(capsys, *argv, "csv")
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "s,t1,t2,t3,r1,r2,r3,in_segment"
    for line, row in zip(lines[1:], doc["samples"], strict=True):
        cells = line.split(",")
        assert all(repr(float(c)) == c for c in cells[:-1])
        assert cells == [repr(x) for x in [row["s"], *row["t"], *row["r"]]] + ["1"]


def test_verify_determinism_and_exit(capsys):
    argv = ["verify", "--g", "0.5", "--dim", "2", "--seed", "11", "--trials", "8"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["overall_pass"] is True
    assert report["config"]["seed"] == 11


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "eval", "--g", "3", "--vector", "1,1")
    assert code == 2 and "characteristic parameter" in err
    code, _, _ = run_cli(capsys, "geodesic", "--g", "0.5", "--t1", "1,0", "--t2", "1,0")
    assert code == 1  # degenerate chord: numerical failure
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    for samples in ("-5", "-1", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["geodesic", "--g", "0.5", "--t1", "1,0", "--t2", "0,1", "--samples", samples])
        assert exc.value.code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "finsleroid.cli", "eval", "--g", "0", "--vector", "3,4,0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "5.0" in proc.stdout


def test_import_pulls_in_no_scipy():
    src = Path(finsleroid.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = (
        "import finsleroid, finsleroid.cli, finsleroid.verify, sys; "
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")
EVAL_GOLDEN = json.loads((Path(__file__).parent / "data" / "eval_golden.json").read_text())


@pytest.mark.parametrize("case", EVAL_GOLDEN, ids=lambda c: " ".join(c["argv"][2:]))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_matches_golden_output(capsys, case, fmt):
    """Recorded `eval` outputs: the same layout with every number masked,
    and every number within 2 ulp of the recorded one."""
    code, out, _ = run_cli(capsys, *case["argv"], "--format", fmt)
    want = case[fmt]
    assert code == 0
    assert FLOAT.sub("#", out) == FLOAT.sub("#", want)
    got, ref = (np.array([float(x) for x in FLOAT.findall(t)]) for t in (out, want))
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))
