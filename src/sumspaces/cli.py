"""Command-line interface: JSON in, JSON report out.

Exit codes: 0 = analysis completed, 2 = precondition or usage error, 3 =
I/O or parse error (including entries that are not [re, im] pairs of finite
numbers, a file that is not UTF-8 or nests too deep, and an --out that cannot
be written); 2 and 3 print {"error": {"type", "message"}}.  Reports are strict
JSON and deterministic: re-running with the same request and seed reproduces
every byte.  stderr stays empty unless --verbose: the command and its emit run
under one np.errstate(all="ignore"), and the explicit checks and the strict emit
refuse every non-finite value.  Only the command's parser is built, and reports
usage errors, when argv starts with the command and holds no -- or --=value
token; otherwise the top-level parser reads argv first.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import shutil
import sys

import numpy as np

from . import __version__
from .errors import DimensionMismatch, MalformedInput, SumspacesError
from .numerics import (DEFAULT_TOL, Tolerances, complex_to_json,
                       dimension_from_json, real_from_json, singular_values)
from .reports import MarginReport
from . import blockmodel, images, paircalc, pairs, reduction, subspaces, systems


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (UnicodeDecodeError, RecursionError) as exc:  # not UTF-8; nested too deep
        raise MalformedInput(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise MalformedInput(f"{path}: top level is not a JSON object")
    return data


def _json_value(value):
    """json.dumps' default: the two non-JSON types a report holds."""
    if isinstance(value, MarginReport):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"a report holds no {type(value).__name__}")


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2, default=_json_value,
                      allow_nan=False) + "\n"  # strict JSON: no NaN or Infinity token
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.verbose:
        for name, rep in report.get("margins", {}).items():
            sys.stderr.write(f"[{name}]\n")
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
    spectrum, margins = paircalc.calculus_report(dec, *fs, tol=tol)
    order = np.lexsort((spectrum.imag, spectrum.real))
    return {
        "request": {"command": "calculus", "a": args.a, "b": args.b,
                    "f1": args.f1, "f2": args.f2, "f3": args.f3, "f4": args.f4},
        "spectrum": complex_to_json(spectrum[order]),
        "margins": {"calculus": margins},
    }


def _cmd_system(args, tol):
    S = subspaces.system_from_json(_load_json(args.members), tol)
    s = singular_values(np.hstack([m.basis for m in S.members]))  # sigma(C), C = [B1 ... Bn]
    out = {
        "request": {"command": "system", "members": args.members},
        "margins": {"sum_gap": systems.sum_gap(S, tol, s)},
    }
    # sigma(P_delta P_Htilde P_delta) of ``systems.dilation``, in closed form: {0}^{(n-1)d}
    # and sigma(sum P) = sigma(C)^2 zero-padded to d, over n
    zeros = np.zeros(len(S) * S.ambient_dim - len(s))
    out["dilation_spectrum"] = np.sort(np.append(zeros, s ** 2 / len(S)))
    if args.alpha is not None:
        alpha = [float(a) for a in args.alpha.split(",")]
        out["margins"]["linear_combination"] = systems.linear_combination_check(S, alpha, tol, s)
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
            raise DimensionMismatch("pair mode needs exactly two members")
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
            raise DimensionMismatch("douglas analysis needs exactly two operators [A, B]")
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
        return {"request": req, "sequence": seq, "verdict": verdict}
    # "membership", the last of the --analysis choices
    return {"request": req, "residual": images.m_membership_identity(F, tol)}


def _cmd_blocks(args, tol):
    BS = _family(args.family_file)
    subset = range(1, BS.n_members + 1) if args.subset == "all" else args.subset.split(",")
    verdict = blockmodel.certify(BS, subset, args.horizon, tol)
    return {
        "request": {"command": "blocks", "family": BS.name, "params": BS.params,
                    "horizon": args.horizon, "subset": verdict.subset},
        "verdict": {"status": verdict.status, "inf_gap": verdict.inf_gap,
                    "trend_slope": verdict.trend_slope,
                    "trend_residual": verdict.trend_residual,
                    "gaps": verdict.gaps},
    }


def _family(path: str) -> blockmodel.BlockSystem:
    params = _load_json(path)  # {"family": name, <parameter>: value, ...}
    name = params.pop("family")
    if not isinstance(name, str):
        raise MalformedInput(f"family must be a name, got {name!r}")
    return blockmodel.paper_families(name, {
        key: dimension_from_json(value) if key == "n" else real_from_json(value)
        for key, value in params.items()})


def _cmd_sum_as_two(args, tol):
    BS = _family(args.family_file)
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


_FILE_PAIR = [("--a", {"required": True}), ("--b", {"required": True})]
_FAMILY = [("--family-file", {"required": True})]
COMMON = [("--out", {"help": "write the JSON report here"}),
          ("--seed", {"type": int, "default": 0, "help": "seed for sampled estimators"}),
          ("--verbose", {"action": "store_true"}),
          ("--rank-tol", {"type": float, "default": DEFAULT_TOL.rank_tol}),
          ("--eig-tol", {"type": float, "default": DEFAULT_TOL.eig_tol}),
          ("--margin-tol", {"type": float, "default": DEFAULT_TOL.margin_tol})]
# name: (one-line help, handler, the command's own flags); main builds the
# parser of the requested command only
COMMANDS = {
    "pair": ("pair decomposition and closedness margins", _cmd_pair, _FILE_PAIR),
    "calculus": ("function calculus for a pair", _cmd_calculus, _FILE_PAIR + [
        (f"--f{i}", {"default": "0",
                     "help": "polynomial coefficients, ascending, comma-separated"})
        for i in range(1, 5)]),
    "system": ("spectral gap and dilation of a system", _cmd_system, [
        ("--members", {"required": True}),
        ("--alpha", {"help": "positive weights for the linear-combination bound"})]),
    "graph": ("graph-weighted complement margins", _cmd_graph, [
        ("--members", {"required": True}),
        ("--graph", {"help": "graph JSON (default: complete)"}),
        ("--modulus", {"action": "store_true",
                       "help": "also bracket the modulus-form constant"})]),
    "reduce": ("reduction to an independent system", _cmd_reduce, [
        ("--members", {"required": True}),
        ("--mode", {"choices": ["pair", "system", "preserve-sum"], "default": "system"}),
        ("--eps", {"type": float, "default": 0.5,
                   "help": "pair mode only: shrink parameter in (0, 1)"})]),
    "images": ("operator-range analyses", _cmd_images, [
        ("--operators", {"required": True}),
        ("--analysis", {"required": True,
                        "choices": ["douglas", "sum", "pradius", "membership"]}),
        ("--p", {"type": float, "default": 2.0}),
        ("--depth", {"type": int, "default": 4})]),
    "blocks": ("block-model closedness certification", _cmd_blocks, _FAMILY + [
        ("--horizon", {"type": int, "default": 100}), ("--subset", {"default": "all"})]),
    "sum-as-two": ("represent a block sum as two subspaces", _cmd_sum_as_two,
                   _FAMILY + [("--horizon", {"type": int, "default": 50})]),
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so that main prints them as the JSON error."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _parser(prog: str, flags, formatter, width: int, **kwargs) -> _Parser:
    parser = _Parser(prog=prog, formatter_class=functools.partial(formatter, width=width),
                     **kwargs)
    for flag, options in COMMON + flags:
        parser.add_argument(flag, **options)
    return parser


def _parse(argv):
    """Only the command's parser, the common flags and its own, when argv starts
    with the command and holds no -- and no --=value (which the top-level parser
    reads as an abbreviation of the common flags alone); its help and usage errors
    are the same as those of the two-stage parse, which reads every other argv:
    the top-level parser reads the common flags and the command name, then the
    command's parser the rest."""
    argv = sys.argv[1:] if argv is None else argv
    width = shutil.get_terminal_size().columns - 2  # argparse's default, read once

    def command(name):
        return _parser(f"sumspaces {name}", COMMANDS[name][2], argparse.HelpFormatter,
                       width, description=COMMANDS[name][0])

    if argv and argv[0] in COMMANDS and not any(
            token == "--" or token.startswith("--=") for token in argv):
        return command(argv[0]).parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    top = _parser("sumspaces", [], argparse.RawDescriptionHelpFormatter, width,
                  description="Closedness certificates for sums of subspaces",
                  epilog="commands:\n" + "\n".join(
                      f"  {name:<12} {help_}" for name, (help_, _, _) in COMMANDS.items()))
    top.add_argument("command", choices=COMMANDS, metavar="command",
                     help="one of the commands listed below")
    top.add_argument("args", nargs=argparse.REMAINDER,
                     help="the command's flags (sumspaces <command> --help)")
    args = top.parse_args(argv)
    return command(args.command).parse_args(args.args, namespace=args)


def _emit_error(exc: Exception) -> None:
    err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stdout.write(json.dumps(err, sort_keys=True, indent=2) + "\n")


def main(argv=None) -> int:
    enabled = gc.isenabled()
    try:
        args = _parse(argv)
        tol = Tolerances(args.rank_tol, args.eig_tol, args.margin_tol)
        gc.disable()  # decoded JSON and the arrays made from it hold no cycles to collect
        with np.errstate(all="ignore"):  # a non-finite value is refused, never printed
            report = COMMANDS[args.command][1](args, tol)
            report["provenance"] = {"version": __version__, "tolerances": vars(tol),
                                    "seed": args.seed}
            _emit(report, args)
    except (OSError, json.JSONDecodeError, KeyError, MalformedInput) as exc:
        _emit_error(exc)
        return 3
    except (argparse.ArgumentError, SumspacesError, ValueError, OverflowError, MemoryError) as exc:
        _emit_error(exc)
        return 2
    finally:
        if enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
