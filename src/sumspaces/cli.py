"""Command-line interface: JSON in, JSON report out.

Exit codes: 0 = analysis completed, 2 = precondition error, 3 = I/O or
parse error (including entries that are not [re, im] pairs of finite
numbers); 2 and 3 print {"error": {"type", "message"}}.  Reports are
deterministic: re-running with the same request and seed reproduces every
byte.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

import numpy as np

from . import __version__
from .errors import MalformedInput, SumspacesError
from .numerics import (DEFAULT_TOL, Tolerances, complex_to_json,
                       dimension_from_json, hermitian_eigenvalues, real_from_json)
from .reports import MarginReport
from . import blockmodel, images, paircalc, pairs, reduction, subspaces, systems


def _load_json(path: str) -> dict:
    enabled = gc.isenabled()
    gc.disable()  # json.load builds an acyclic tree: a collection would free nothing
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    finally:
        if enabled:
            gc.enable()
    if not isinstance(data, dict):
        raise MalformedInput(f"{path}: top level is not a JSON object")
    return data


def _canonical(value):
    """Make a report JSON-serializable with deterministic formatting."""
    if isinstance(value, MarginReport):
        return _canonical(value.to_dict())
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, complex):
        return complex_to_json(value)
    if isinstance(value, (np.floating,)):
        return _canonical(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return _canonical(value.tolist())
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    return value


def _emit(report: dict, args) -> None:
    text = json.dumps(_canonical(report), sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    if args.verbose:
        margins = report.get("margins", {})
        for name, rep in margins.items() if isinstance(margins, dict) else []:
            sys.stderr.write(f"[{name}]\n")
            if isinstance(rep, MarginReport):
                for e in rep.entries:
                    sys.stderr.write(f"  {e.criterion}: {e.margin} ({e.verdict})\n")


def _poly(text: str) -> paircalc.ScalarFunction:
    coeffs = []
    for part in text.split(","):
        part = part.strip()
        coeffs.append(complex(part) if "j" in part else float(part))
        if not np.isfinite(coeffs[-1]):
            raise ValueError(f"polynomial coefficient {part!r} is not finite")
    return paircalc.ScalarFunction.from_poly(coeffs)


def _cmd_pair(args, tol):
    A = subspaces.subspace_from_json(_load_json(args.a), tol)
    B = subspaces.subspace_from_json(_load_json(args.b), tol)
    angle, criteria, independent = pairs.pair_report(A, B, tol)
    return {
        "request": {"command": "pair", "a": args.a, "b": args.b},
        "friedrichs_angle": angle,
        "margins": {"pair_criteria": criteria, "independent_pair": independent},
    }


def _cmd_calculus(args, tol):
    A = subspaces.subspace_from_json(_load_json(args.a), tol)
    B = subspaces.subspace_from_json(_load_json(args.b), tol)
    fs = [_poly(getattr(args, f"f{i}")) for i in range(1, 5)]
    dec = pairs.halmos_decompose(A, B, tol)
    spectrum = paircalc.spectrum_of_b(dec, *fs)
    order = np.lexsort((spectrum.imag, spectrum.real))
    return {
        "request": {"command": "calculus", "a": args.a, "b": args.b,
                    "f1": args.f1, "f2": args.f2, "f3": args.f3, "f4": args.f4},
        "spectrum": complex_to_json(spectrum[order]),
        "margins": {"calculus": paircalc.calculus_criteria(dec, *fs, tol=tol)},
    }


def _cmd_system(args, tol):
    S = subspaces.system_from_json(_load_json(args.members), tol)
    out = {
        "request": {"command": "system", "members": args.members},
        "margins": {"sum_gap": systems.sum_gap(S, tol)},
    }
    P_delta, P_H = systems.dilation(S)
    w = hermitian_eigenvalues(P_delta @ P_H @ P_delta, tol)
    out["dilation_spectrum"] = [float(v) for v in w]
    if args.alpha:
        alpha = [float(a) for a in args.alpha.split(",")]
        out["margins"]["linear_combination"] = systems.linear_combination_check(S, alpha, tol)
    return out


def _cmd_graph(args, tol):
    S = subspaces.system_from_json(_load_json(args.members), tol)
    if args.graph:
        G = systems.WeightedGraph.from_json(_load_json(args.graph))
    else:
        G = systems.WeightedGraph.complete(len(S))
    report = systems.complement_graph_margin(
        S, G, tol, modulus=args.modulus, seed=args.seed)
    return {
        "request": {"command": "graph", "members": args.members,
                    "graph": args.graph, "modulus": args.modulus},
        "margins": {"complement_graph": report},
    }


def _cmd_reduce(args, tol):
    S = subspaces.system_from_json(_load_json(args.members), tol)
    if args.mode == "pair":
        if len(S) != 2:
            raise SumspacesError("pair mode needs exactly two members")
        M2, report = reduction.reduce_pair(S.members[0], S.members[1], args.eps, tol)
        return {
            "request": {"command": "reduce", "mode": "pair",
                        "members": args.members, "eps": args.eps},
            "artifacts": {"m2": subspaces.subspace_to_json(M2)},
            "margins": {"reduce_pair": report},
        }
    if args.mode == "preserve-sum":
        result = reduction.reduce_preserving_sum(S, tol)
    else:
        result = reduction.reduce_system(S, tol)
    return {
        "request": {"command": "reduce", "mode": args.mode, "members": args.members},
        "artifacts": {"reduced": subspaces.system_to_json(result.reduced)},
        "certificate": {
            "c_n": [result.c_n.numerator, result.c_n.denominator],
            "epsilon": result.epsilon,
            "weights": list(result.weights),
            "rhs": result.rhs,
            "slack": result.certificate_slack,
            "sum_preserved": result.sum_preserved,
            "numerically_vacuous": result.numerically_vacuous,
        },
        "margins": {"reduction": result.report},
    }


def _cmd_images(args, tol):
    F = images.OperatorFamily.from_json(_load_json(args.operators))
    req = {"command": "images", "operators": args.operators, "analysis": args.analysis}
    if args.analysis == "douglas":
        if len(F.members) != 2:
            raise SumspacesError("douglas analysis needs exactly two operators [A, B]")
        C, lam = images.douglas_factor(F.members[0], F.members[1], tol)
        return {"request": req,
                "factor": complex_to_json(C),
                "inclusion_lambda": lam}
    if args.analysis == "sum":
        image, report = images.sum_of_images(F, tol)
        return {"request": req,
                "artifacts": {"image": subspaces.subspace_to_json(image)},
                "margins": {"sum_of_images": report}}
    if args.analysis == "pradius":
        seq, verdict = images.p_radius(F, p=args.p, depth=args.depth, tol=tol)
        return {"request": req, "sequence": [float(v) for v in seq],
                "verdict": verdict}
    if args.analysis == "membership":
        residual = images.m_membership_identity(F, tol)
        return {"request": req, "residual": residual}
    raise SumspacesError(f"unknown analysis {args.analysis}")


def _cmd_blocks(args, tol):
    BS = _family_from_args(args)
    n = BS.n_members
    subset = list(range(1, n + 1)) if args.subset == "all" \
        else [int(x) for x in args.subset.split(",")]
    verdict = blockmodel.certify(BS, subset, args.horizon, tol)
    return {
        "request": {"command": "blocks", "family": BS.name, "params": BS.params,
                    "horizon": args.horizon, "subset": subset},
        "verdict": {"status": verdict.status, "inf_gap": verdict.inf_gap,
                    "trend_slope": verdict.trend_slope,
                    "trend_residual": verdict.trend_residual,
                    "gaps": [g if np.isfinite(g) else "inf" for g in verdict.gaps]},
    }


def _family_from_args(args) -> blockmodel.BlockSystem:
    if args.family_file:
        spec = _load_json(args.family_file)
        name = spec["family"]
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise MalformedInput("family params must be a JSON object")
        params = {key: dimension_from_json(value) if key == "n" else real_from_json(value)
                  for key, value in params.items()}
        for key in spec.keys() - {"family", "params"}:  # only n may stand at the top level
            if key != "n" or "n" in params:
                raise ValueError(f"family file key {key!r} is unknown or given twice")
            params["n"] = dimension_from_json(spec["n"])
        return blockmodel.paper_families(name, params)
    params = {}
    if args.n is not None:
        params["n"] = args.n
    return blockmodel.paper_families(args.family, params)


def _cmd_sum_as_two(args, tol):
    BS = _family_from_args(args)
    m1, m2, report = blockmodel.sum_as_two(BS, args.horizon, tol)
    return {
        "request": {"command": "sum-as-two", "family": BS.name,
                    "params": BS.params, "horizon": args.horizon},
        "artifacts": {
            "m1_dims": [s.dim for s in m1],
            "m2_dims": [s.dim for s in m2],
        },
        "margins": {"sum_as_two": report},
    }


def _add_common(parser, suppress: bool) -> None:
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--out", default=d(None), help="write the JSON report here")
    parser.add_argument("--seed", type=int, default=d(0),
                        help="seed for sampled estimators")
    parser.add_argument("--verbose", action="store_true",
                        default=d(False))
    parser.add_argument("--rank-tol", type=float, default=d(DEFAULT_TOL.rank_tol))
    parser.add_argument("--eig-tol", type=float, default=d(DEFAULT_TOL.eig_tol))
    parser.add_argument("--margin-tol", type=float, default=d(DEFAULT_TOL.margin_tol))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumspaces",
        description="Closedness certificates for sums of subspaces")
    _add_common(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair", parents=[common],
                       help="pair decomposition and closedness margins")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("calculus", parents=[common],
                       help="function calculus for a pair")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    for i in range(1, 5):
        p.add_argument(f"--f{i}", default="0",
                       help="polynomial coefficients, ascending, comma-separated")
    p.set_defaults(func=_cmd_calculus)

    p = sub.add_parser("system", parents=[common],
                       help="spectral gap and dilation of a system")
    p.add_argument("--members", required=True)
    p.add_argument("--alpha", default=None,
                   help="positive weights for the linear-combination bound")
    p.set_defaults(func=_cmd_system)

    p = sub.add_parser("graph", parents=[common],
                       help="graph-weighted complement margins")
    p.add_argument("--members", required=True)
    p.add_argument("--graph", default=None, help="graph JSON (default: complete)")
    p.add_argument("--modulus", action="store_true",
                   help="also bracket the modulus-form constant")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("reduce", parents=[common],
                       help="reduction to an independent system")
    p.add_argument("--members", required=True)
    p.add_argument("--mode", choices=["pair", "system", "preserve-sum"],
                   default="system")
    p.add_argument("--eps", type=float, default=0.5)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("images", parents=[common],
                       help="operator-range analyses")
    p.add_argument("--operators", required=True)
    p.add_argument("--analysis", required=True,
                   choices=["douglas", "sum", "pradius", "membership"])
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(func=_cmd_images)

    p = sub.add_parser("blocks", parents=[common],
                       help="block-model closedness certification")
    p.add_argument("--family", default="one_over_k")
    p.add_argument("--family-file", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--subset", default="all")
    p.set_defaults(func=_cmd_blocks)

    p = sub.add_parser("sum-as-two", parents=[common],
                       help="represent a block sum as two subspaces")
    p.add_argument("--family", default="one_over_k")
    p.add_argument("--family-file", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--horizon", type=int, default=50)
    p.set_defaults(func=_cmd_sum_as_two)
    return parser


def _emit_error(exc: Exception) -> None:
    err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stdout.write(json.dumps(err, sort_keys=True, indent=2) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = Tolerances(args.rank_tol, args.eig_tol, args.margin_tol)
        report = args.func(args, tol)
    except (OSError, json.JSONDecodeError, KeyError, MalformedInput) as exc:
        _emit_error(exc)
        return 3
    except (SumspacesError, ValueError, OverflowError) as exc:
        _emit_error(exc)
        return 2
    report["provenance"] = {"version": __version__, "tolerances": vars(tol), "seed": args.seed}
    _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
