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
from finsleroid import cli
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
    assert payload["cartan"] is None  # axis: the Cartan tensor has no limit there


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


@pytest.mark.parametrize(
    "spec, content, message",
    [
        ("diag:1,x", None, "could not convert"),  # a non-numeric diagonal entry
        ("file", "abc", "does not start with the size"),  # a file of text
        ("file", "", "does not start with the size"),  # an empty file
        ("file", "2\n1.0 0.1\n0.1", "does not hold"),  # a short file
        ("file", "2\n1.0 0.1\n0.1 y", "could not convert"),  # a non-numeric entry
    ],
)
def test_malformed_metric_spec_exits_2(tmp_path, capsys, spec, content, message):
    if content is not None:
        path = tmp_path / "metric.txt"
        path.write_text(content)
        spec = f"file:{path}"
    code, out, err = run_cli(capsys, "eval", "--g", "1", "--vector", "1,0,1", "--metric", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


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

GOLDEN_PULLBACK_JSON = """\
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
      "in_segment": true,
      "r": [
        1.0045613267807671,
        0.0,
        -0.36164207764107614
      ]
    },
    {
      "s": 1.541786372123437,
      "t": [
        0.1,
        0.9,
        0.5
      ],
      "in_segment": true,
      "r": [
        0.08562181198684819,
        0.7705963078816338,
        -0.12271584231226793
      ]
    }
  ]
}
"""


def test_geodesic_golden_output(capsys):
    assert run_cli(capsys, *GEODESIC_ARGV, "--samples", "2", "--format", "csv")[1] == GOLDEN_CSV
    assert run_cli(capsys, *GEODESIC_ARGV, "--samples", "1", "--format", "json")[1] == GOLDEN_JSON
    argv = [*GEODESIC_ARGV, "--samples", "1", "--pullback", "--format", "json"]
    assert run_cli(capsys, *argv)[1] == GOLDEN_PULLBACK_JSON


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


def _check_encoder_output(capsys, argv, pullback):
    """The JSON is json.dumps(doc, indent=2), and every CSV cell is repr of its JSON value."""
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[: len(doc["chord"])] == [f"# {key}={val!r}" for key, val in doc["chord"].items()]
    rows = lines[len(doc["chord"]) + 1 :]
    for line, row in zip(rows, doc["samples"], strict=True):
        values = [row["s"], *row["t"], *(row["r"] if pullback else ())]
        assert line.split(",") == [repr(x) for x in values] + ["1" if row["in_segment"] else "0"]
    return doc


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("g", [0.0, -1.5, 1.9])
def test_geodesic_output_is_the_encoder_output(capsys, g, dim, scale):
    t1 = scale * np.array([1.0, 0.3, -0.2, 0.5, 0.7])[:dim]
    t2 = scale * np.array([0.6, 0.8, 0.1, 0.4, 0.9])[:dim]
    base = ["geodesic", f"--g={g!r}", "--t1=" + ",".join(map(repr, t1.tolist())),
            "--t2=" + ",".join(map(repr, t2.tolist()))]
    for samples in (1, 2, 1024):
        for pullback in (False, True):
            argv = [*base, "--samples", str(samples)] + (["--pullback"] if pullback else [])
            doc = _check_encoder_output(capsys, argv, pullback)
            assert len(doc["samples"]) == samples + 1
            assert [list(row) for row in doc["samples"]] == [["s", "t", "in_segment"] + ["r"] * pullback] * (
                samples + 1
            )


def test_geodesic_output_flags_outside_the_segment(monkeypatch, capsys):
    # in_segment is true on every sample the command draws; a stub covers the false rows
    monkeypatch.setattr(cli, "in_segment", lambda chord, s, slack: np.arange(s.size) % 3 == 0)
    for pullback in (False, True):
        argv = [*GEODESIC_ARGV, "--samples", "7"] + (["--pullback"] if pullback else [])
        doc = _check_encoder_output(capsys, argv, pullback)
        assert [row["in_segment"] for row in doc["samples"]] == [i % 3 == 0 for i in range(8)]


@pytest.mark.parametrize("pullback", [False, True])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_geodesic_non_finite_samples_exit_1(monkeypatch, capsys, fmt, pullback):
    real = cli.geodesic_point

    def nan_row(chord, s):
        pts = real(chord, s)
        pts[1] = np.nan
        return pts

    monkeypatch.setattr(cli, "geodesic_point", nan_row)
    argv = [*GEODESIC_ARGV, "--samples", "4", "--format", fmt] + (["--pullback"] if pullback else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == "error: non-finite geodesic samples in float64\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_geodesic_non_finite_pullback_exits_1(monkeypatch, capsys, fmt):
    real = cli.mu_map

    def inf_row(par, ctx, t):
        r = real(par, ctx, t)
        r[2, 0] = np.inf
        return r

    monkeypatch.setattr(cli, "mu_map", inf_row)
    code, out, err = run_cli(capsys, *GEODESIC_ARGV, "--samples", "4", "--pullback", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "error: non-finite pulled-back samples in float64\n"


def test_geodesic_chord_near_1e154_is_homogeneous(capsys):
    # a^2 and |t|^2 along this chord leave float64; the chord is evaluated
    # at an exact power-of-two scale, so its samples are those of the unit
    # pair scaled by 1e154 (the pullback is 1-homogeneous too)
    big, unit = ("--t1=1e154,0,5e153", "--t2=2e153,1e154,4e153"), ("--t1=1,0,0.5", "--t2=0.2,1,0.4")
    for extra in ([], ["--pullback"]):
        samples = {}
        for fmt in ("json", "csv"):
            for pair in (big, unit):
                code, out, err = run_cli(capsys, "geodesic", "--g", "1", *pair, "--samples", "6", *extra, "--format", fmt)
                assert (code, err) == (0, "")
                if fmt == "json":
                    rows = json.loads(out)["samples"]
                    samples[pair] = np.array([[s["s"], *s["t"], *s.get("r", [])] for s in rows])
                else:
                    rows = [line.split(",") for line in out.splitlines() if not line.startswith(("#", "s,"))]
                    np.testing.assert_array_equal(np.array(rows, dtype=float)[:, :-1], samples[pair])
        want = 1e154 * samples[unit]
        np.testing.assert_allclose(samples[big], want, rtol=0.0, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_overflowing_determinant_exits_1(capsys, fmt):
    # near |g| = 2 the metric determinant and J^(2N) leave float64
    code, out, err = run_cli(capsys, "eval", "--g", "1.9999", "--vector", "0,0,1", "--format", fmt)
    assert code == 1 and out == ""
    assert err == "error: non-finite det(g_pq) in float64\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_eval_overflowing_cartan_scalar_exits_1(capsys, fmt):
    # C_p C^p = N^2 g^2/(4 K^2) leaves float64 at a vector near 1e-160,
    # where every other printed quantity is finite
    code, out, err = run_cli(capsys, "eval", "--g", "1", "--vector=1e-160,1e-160,1e-160", "--format", fmt)
    assert code == 1 and out == ""
    assert err == "error: non-finite C_p C^p in float64\n"


def _eval_json(capsys, vector):
    code, out, err = run_cli(capsys, "eval", "--g", "1", f"--vector={vector}", "--format", "json")
    assert (code, err) == (0, "")
    return json.loads(out)


def test_eval_at_large_vectors_is_homogeneous(capsys):
    # B^2 leaves float64 at 1e140 times a vector; the metric tensor, of
    # degree 0, is the unit vector's all the same: to rounding at 1e140 x,
    # which is not an exact scaling of x, and to the bit at 2^465 x
    unit = _eval_json(capsys, "0.4,-0.7,0.9")
    big = _eval_json(capsys, "0.4e140,-0.7e140,0.9e140")
    exact = _eval_json(capsys, ",".join(repr(math.ldexp(x, 465)) for x in (0.4, -0.7, 0.9)))
    for key in ("metric_tensor", "det_metric", "phi", "j", "det_identity"):
        np.testing.assert_allclose(big[key], unit[key], rtol=1e-15, err_msg=key)
        assert exact[key] == unit[key], key
    for key, degree in (("q", 1), ("b_form", 2), ("k", 1)):
        assert big[key] == pytest.approx(1e140**degree * unit[key], rel=1e-15), key
        assert exact[key] == math.ldexp(unit[key], 465 * degree), key
    np.testing.assert_allclose(big["cartan"]["c_p_c_p"], 1e-280 * unit["cartan"]["c_p_c_p"], rtol=1e-15)
    code, out, _ = run_cli(capsys, "eval", "--g", "1", "--vector=0.4e140,-0.7e140,0.9e140")
    assert code == 0
    assert re.search(r"^det_metric += 41\.992117638096", out, re.M)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("vector", ["1,0.3,0", "3e-162,4e-162,1"])
def test_eval_cartan_in_the_plane_and_near_the_axis(capsys, vector):
    # in the plane Z = 0, and at q = 5e-162, whose q^2 is subnormal: finite
    # Cartan data with C_p C^p = N^2 g^2/(4 K^2), and no warning
    payload = _eval_json(capsys, vector)
    assert np.isfinite(payload["cartan"]["c_vec_lower"] + payload["cartan"]["c_vec_upper"]).all()
    assert payload["cartan"]["c_p_c_p"] == pytest.approx(9 / (4 * payload["k"] ** 2), rel=1e-14)
    assert payload["q"] == pytest.approx(math.hypot(*map(float, vector.split(",")[:2])), rel=1e-15)
    code, out, err = run_cli(capsys, "eval", "--g", "1", f"--vector={vector}")
    assert (code, err) == (0, "")
    assert f"c_p_c_p       = {payload['cartan']['c_p_c_p']!r}\n" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("vector", ["8e307,-1.4e308,1.7e308", "0.4e200,-0.7e200,0.9e200"])
def test_eval_beyond_float64_exits_1(capsys, vector, fmt):
    # the printed bundle field B, of degree 2, leaves float64 (q, of degree 1,
    # still fits): a typed error naming it, without a numpy warning (pytest
    # turns those into errors)
    code, out, err = run_cli(capsys, "eval", "--g", "1", f"--vector={vector}", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "error: B is not finite at this scale\n"


def test_verify_near_two_exits_1_without_warnings(capsys):
    # checks fail near |g| = 2, each with a residual or a typed error; no
    # numpy warning escapes (pytest turns those into errors)
    code, out, _ = run_cli(capsys, "verify", "--g", "1.9999", "--dim", "5", "--trials", "5")
    assert code == 1 and json.loads(out)["overall_pass"] is False


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


def test_cli_import_leaves_the_verifier_out():
    # eval and geodesic need no verifier: cmd_verify imports it
    src = Path(finsleroid.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    code = (
        "import finsleroid.cli, sys; "
        "print([m for m in ('finsleroid.verify', 'finsleroid.oracles', 'finsleroid.numdiff') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
