"""Command-line front end: JSON reports on stdout, diagnostics on stderr.

Exit codes: 0 success, 2 precondition/usage errors, 3 invariant breach (a
cross-check between two independently computed quantities failed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__, weyl
from .homology import InvariantBreachError
from .rootdata import LieType, LieTypeError, build_root_datum, dynkin_index
from .weyl import WeylCapError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_BREACH = 3

def _jsonable(value):
    if isinstance(value, float):
        if not math.isfinite(value):
            return str(value)  # "nan", "inf" or "-inf": JSON has no such number
        return float(f"{value:.12e}")
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    text = json.dumps(_jsonable(payload), sort_keys=True, separators=(",", ":"), allow_nan=False)
    sys.stdout.write(text)
    sys.stdout.write("\n")


def _cmd_invariants(args) -> int:
    from . import invariants
    datum = build_root_datum(args.type)
    report = invariants.pi2_hom_pairs(datum.lie_type)
    ecom, bcom = invariants.pi4_commutative_classifying(datum.lie_type)
    _emit(
        {
            "command": "invariants",
            "type": datum.lie_type.name,
            "pi2_hom": str(report.group),
            "pi2_rep": "Z",
            "quotient_degree": report.quotient_degree,
            "dynkin_index": dynkin_index(datum),
            "prime_breakdown": {str(p): c for p, c in report.prime_breakdown},
            "coroot_integers": list(datum.coroot_integers),
            "pi4_ecom": str(ecom),
            "pi4_bcom": str(bcom),
            "provenance": report.provenance,
            "root_datum": datum.to_json_dict(),
        }
    )
    return EXIT_OK


def _cmd_poincare(args) -> int:
    # molien_poincare's own input checks, made before the datum and the enumeration
    if args.n < 1:
        raise ValueError("n must be >= 1")
    if args.deg < 0:
        raise ValueError("max_deg must be >= 0")
    lie_type = LieType.parse(args.type)
    weyl.check_cap(lie_type)  # from the type: no O(r^3) closure above the cap
    datum = build_root_datum(lie_type)
    # the buckets alone: a cold run never holds the element stack
    histogram = weyl.charpoly_histogram(datum, cache_dir=_cache_dir(args))
    coeffs = weyl.molien_poincare(histogram, args.n, args.deg)
    _emit(
        {
            "command": "poincare",
            "type": datum.lie_type.name,
            "n": args.n,
            "max_deg": args.deg,
            "coefficients": coeffs,
        }
    )
    return EXIT_OK


def _cmd_cells(args) -> int:
    # both bounds are checked before the root datum, whose closure costs O(r^3)
    lie_type = LieType.parse(args.type)
    if lie_type.rank > args.rank_cap:
        raise LieTypeError(f"census for rank {lie_type.rank} exceeds --rank-cap {args.rank_cap}")
    if not 1 <= args.k <= weyl.CENSUS_MAX_K:
        raise ValueError(f"k must lie in 1..{weyl.CENSUS_MAX_K}; no option raises this bound")
    datum = build_root_datum(lie_type)
    group = weyl.generate(datum, cache_dir=_cache_dir(args))
    # k by name: perfbench's span hook for cell_census reads k by name or at position 2
    counts = weyl.cell_census(group, k=args.k)
    euler = weyl.euler_char_rep(group, args.k)
    _emit(
        {
            "command": "cells",
            "type": datum.lie_type.name,
            "k": args.k,
            "counts_by_dim": counts,
            "euler_characteristic": euler,
        }
    )
    return EXIT_OK


def _cmd_wps_degree(args) -> int:
    from . import wps
    weights = tuple(int(w) for w in args.weights.split(","))
    payload = {
        "command": "wps-degree",
        "weights": list(weights),
        "k": args.k,
        "projection_degree": wps.proj_degree(weights, args.k),
    }
    if args.subset:
        subset = tuple(int(i) for i in args.subset.split(","))
        payload["subset"] = list(subset)
        payload["inclusion_degree"] = wps.inclusion_degree(weights, subset, args.k)
    _emit(payload)
    return EXIT_OK


def _cmd_spin_stability(args) -> int:
    from . import wps
    given = (args.m is not None, args.ell is not None, args.k is not None)
    if given not in ((True, False, False), (False, True, True)) or (given[0] and args.parity):
        raise ValueError("provide either --m, or --ell with --k (and --parity)")
    if args.m is not None:
        report = {"m": args.m, **wps.spin_pi2_stability(args.m)}
    else:
        parity = args.parity or "even"
        question = {"ell": args.ell, "parity": parity, "k": args.k}
        report = {**question, **wps.spin_stability_report(args.ell, parity, args.k)}
    _emit({"command": "spin-stability", **report})
    return EXIT_OK


def _cmd_beta_check(args) -> int:
    from . import geom
    report = geom.beta_check(grid=args.grid)
    ok = geom.beta_passed(report)
    _emit({"command": "beta-check", "passed": ok, **report})
    return EXIT_OK if ok else EXIT_BREACH


def _cmd_cocycle_check(args) -> int:
    from . import geom
    report = geom.cocycle_check(samples=args.samples)
    ok = geom.cocycle_passed(report)
    _emit({"command": "cocycle-check", "passed": ok, **report})
    return EXIT_OK if ok else EXIT_BREACH


def _cmd_verify(args) -> int:
    from . import verify
    results = verify.run_all()
    for res in results:
        status = "PASS" if res["passed"] else "FAIL"
        print(
            f"[{status}] {res['index']:2d} {res['name']}: {res['detail']} ({res['seconds']:.1f}s)",
            file=sys.stderr,
        )
    passed = all(res["passed"] for res in results)
    _emit({"command": "verify", "passed": passed, "criteria": results})
    return EXIT_OK if passed else EXIT_BREACH


def _cache_dir(args) -> Path | None:
    return Path(args.cache_dir) if args.cache_dir else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecomm",
        description="Invariants of spaces of commuting elements in compact Lie groups",
    )
    parser.add_argument("--version", action="version", version=f"liecomm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="pi_2 report and quotient degree for a simple type")
    p.add_argument("type", help="Lie type, e.g. E8, G2, SU(5), Spin(9), Sp(3)")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("poincare", help="Poincare series coefficients of the n-tuple space")
    p.add_argument("type")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--deg", type=int, default=6, help="truncation degree")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("cells", help="cell census of the k-fold torus quotient")
    p.add_argument("type")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--rank-cap", type=int, default=4)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_cells)

    p = sub.add_parser("wps-degree", help="weighted projective space degrees")
    p.add_argument("--weights", required=True, help="comma separated, e.g. 1,2,3")
    p.add_argument("--k", type=int, default=1, help="half the homology degree")
    p.add_argument("--subset", default=None, help="coordinate subset for the inclusion degree")
    p.set_defaults(func=_cmd_wps_degree)

    p = sub.add_parser("spin-stability", help="spin stabilization degrees")
    p.add_argument("--m", type=int, default=None, help="pi_2 stability verdict for m -> m+1")
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--parity", choices=("even", "odd"), default=None, help="default even")
    p.add_argument("--k", type=int, default=None, help="homology degree")
    p.set_defaults(func=_cmd_spin_stability)

    p = sub.add_parser("beta-check", help="residuals of the prism-boundary generator")
    p.add_argument("--grid", type=int, default=50)
    p.set_defaults(func=_cmd_beta_check)

    p = sub.add_parser("cocycle-check", help="residuals of the 4-sphere commutative cocycle")
    p.add_argument("--samples", type=int, default=10_000)
    p.set_defaults(func=_cmd_cocycle_check)

    p = sub.add_parser("verify", help="run the full acceptance suite")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantBreachError as exc:
        print(f"liecomm: invariant breach: {exc}", file=sys.stderr)
        return EXIT_BREACH
    except WeylCapError as exc:
        print(f"liecomm: {exc}; no option of {args.command} raises this cap", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"liecomm: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
