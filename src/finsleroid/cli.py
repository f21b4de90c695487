"""Command-line front end: evaluate scalars and tensors, sample geodesics
to JSON/CSV, and run the verification suite with a machine-readable report.

Exit codes: 0 success, 1 numerical-domain or check failure, 2 usage error.
JSON keys are snake_case and stable; floats are emitted in the shortest
round-trippable form, identically in JSON and CSV.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import MetricContext, kfun, make_parameter, parse_metric_spec, scalar_bundle
from .errors import FinsleroidError, NumericalDomainError, OnAxisError, OutOfRangeError
from .geodesics import geodesic_point, in_segment, solve_chord
from .quasimap import mu_map
from .tensors import cartan_tensor, metric_tensor

__all__ = ["main"]


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",") if x != ""])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}") from exc


def _context(args, dim: int) -> MetricContext:
    return MetricContext(dim, parse_metric_spec(args.metric, dim))


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _finite(x, what: str):
    """x itself; a non-finite entry raises NumericalDomainError naming `what`."""
    if not np.isfinite(x).all():
        raise NumericalDomainError(f"non-finite {what} in float64")
    return x


def cmd_eval(args) -> int:
    par = make_parameter(args.g)
    vec = args.vector
    dim = args.dim if args.dim is not None else vec.size
    if vec.size != dim:
        print(f"error: vector has {vec.size} components, dimension is {dim}", file=sys.stderr)
        return 2
    ctx = _context(args, dim)
    sb = scalar_bundle(par, ctx, vec)  # raises where B or another field leaves float64
    fields = {"q": sb.q, "b_form": sb.B, "phi": sb.phi, "j": sb.J}
    scalars = {key: _finite(float(x), key) for key, x in fields.items()}
    gm = metric_tensor(par, ctx, vec)
    with np.errstate(over="ignore", invalid="ignore"):
        det_g = _finite(float(np.linalg.det(gm)), "det(g_pq)")
        det_identity = _finite(float(sb.J ** (2 * dim) * np.linalg.det(ctx.r_ab)), "J^(2N) det(r_ab)")
    try:
        ct = cartan_tensor(par, ctx, vec)
        with np.errstate(over="ignore", invalid="ignore"):
            c_p_c_p = float(ct.c_vec_lower @ ct.c_vec_upper)  # N^2 g^2/(4 K^2): past float64 for small K
        cartan = {
            "c_vec_lower": _finite(ct.c_vec_lower, "C_p"),
            "c_vec_upper": _finite(ct.c_vec_upper, "C^p"),
            "c_p_c_p": _finite(c_p_c_p, "C_p C^p"),
        }
    except OnAxisError:
        cartan = None

    payload = {
        "g": par.g,
        "h": par.h,
        "dim": dim,
        "vector": vec,
        **scalars,
        "k": float(kfun(par, ctx, vec)),
        "metric_tensor": gm,
        "det_metric": det_g,
        "det_identity": det_identity,
        "cartan": cartan,
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2, default=lambda arr: arr.tolist()))
    else:
        for key in ("q", "b_form", "phi", "j", "k", "det_metric", "det_identity"):
            print(f"{key:13s} = {payload[key]!r}")
        print("metric_tensor =")
        for row in gm:
            print("   " + "  ".join(repr(float(x)) for x in row))
        if cartan is None:
            print("cartan        = (undefined on the axis)")
        else:
            print(f"c_p_c_p       = {cartan['c_p_c_p']!r}")
    return 0


def cmd_geodesic(args) -> int:
    par = make_parameter(args.g)
    t1, t2 = args.t1, args.t2
    if t1.size != t2.size:
        print("error: endpoint dimensions differ", file=sys.stderr)
        return 2
    ctx = _context(args, t1.size)
    chord = solve_chord(par, ctx, t1, t2)
    svals = np.linspace(0.0, chord.delta_s, args.samples + 1)
    pts = geodesic_point(chord, svals)
    # checked before mu_map, which would reject a non-finite point as bad input (exit 2)
    table = _finite(np.column_stack([svals, pts]), "geodesic samples")
    if args.pullback:
        table = np.column_stack([table, _finite(mu_map(par, ctx, pts), "pulled-back samples")])
    flags = in_segment(chord, svals, slack=1e-12).tolist()
    # one C-level pass prints every float as float.__repr__, as json.dumps and repr do
    texts = json.dumps(table.ravel().tolist())[1:-1].split(", ")
    cells = list(zip(*[iter(texts)] * table.shape[1]))  # a tuple of texts per sample row
    meta = {
        "g": par.g,
        "a": chord.a,
        "b": chord.b,
        "delta_s": chord.delta_s,
        "alpha": chord.alpha,
        "s_end": chord.s_end,
    }
    if args.format == "json":
        # the layout of json.dumps(doc, indent=2): a %-template per row, one for each in_segment value
        vec = "[\n" + ",\n".join(["        %s"] * ctx.n) + "\n      ]"

        def template(flag):
            keys = ['"s": %s', f'"t": {vec}', f'"in_segment": {flag}'] + [f'"r": {vec}'] * args.pullback
            return "    {\n      " + ",\n      ".join(keys) + "\n    }"

        row = {True: template("true"), False: template("false")}
        rows = ",\n".join([row[flag] % c for c, flag in zip(cells, flags)])
        head = json.dumps({"chord": meta}, indent=2)[:-2]
        print(f'{head},\n  "samples": [\n{rows}\n  ]\n}}')
    else:
        lines = [f"# {key}={float(val)!r}" for key, val in meta.items()]
        header = ["s"] + [f"t{i + 1}" for i in range(ctx.n)]
        if args.pullback:
            header += [f"r{i + 1}" for i in range(ctx.n)]
        header.append("in_segment")
        lines.append(",".join(header))
        lines += [",".join(c) + (",1" if flag else ",0") for c, flag in zip(cells, flags)]
        print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    # imported here, so that eval and geodesic do not load the verifier, its oracles and numdiff
    from .verify import RunConfig, report_to_json, run_verify

    config = RunConfig(
        g=args.g, dim=args.dim, metric=args.metric, seed=args.seed, trials=args.trials, tol=args.tol
    )
    report = run_verify(config)
    print(report_to_json(report))
    if not report["overall_pass"]:
        failing = [c["id"] for c in report["checks"] if not c["pass"]]
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsleroid",
        description="Finsleroid-space kernels: scalar/tensor evaluation, geodesic sampling, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the scalar bundle and tensors at one vector")
    p_eval.add_argument("--g", type=float, required=True, help="characteristic parameter in (-2, 2)")
    p_eval.add_argument("--dim", type=int, default=None, help="dimension (defaults to the vector length)")
    p_eval.add_argument("--metric", default="identity", help="identity | diag:v1,v2,... | file:PATH")
    p_eval.add_argument("--vector", type=_parse_vector, required=True, help="comma-separated components")
    p_eval.add_argument("--format", choices=("text", "json"), default="text")
    p_eval.set_defaults(func=cmd_eval)

    p_geo = sub.add_parser("geodesic", help="sample the geodesic chord between two image vectors")
    p_geo.add_argument("--g", type=float, required=True)
    p_geo.add_argument("--metric", default="identity")
    p_geo.add_argument("--t1", type=_parse_vector, required=True)
    p_geo.add_argument("--t2", type=_parse_vector, required=True)
    p_geo.add_argument(
        "--samples", type=positive_int, default=16, help="number of segments, >= 1 (emits samples+1 rows)"
    )
    p_geo.add_argument("--pullback", action="store_true", help="also emit the original-space coordinates")
    p_geo.add_argument("--format", choices=("json", "csv"), default="json")
    p_geo.set_defaults(func=cmd_geodesic)

    p_ver = sub.add_parser("verify", help="run the full identity-check suite")
    p_ver.add_argument("--g", type=float, required=True)
    p_ver.add_argument("--dim", type=int, default=3)
    p_ver.add_argument("--metric", default="identity")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=200)
    p_ver.add_argument(
        "--tol", type=float, default=1e-9,
        help="gate of the checks registered without a fixed one (only core.parameter_identities); "
        "every other check keeps its own",
    )
    p_ver.add_argument("--format", choices=("json",), default="json")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OutOfRangeError as exc:
        # invalid input, as opposed to a numerical-domain failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FinsleroidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
