"""Command line front end.

Text formats: a two-rowed array is two lines of space-separated
integers (top row, then bottom row); a tableau is one row per line.
``--json`` switches to ``{"top": [...], "bottom": [...]}`` and
``{"rows": [[...], ...]}`` payloads.  All output is deterministic for
fixed flags and seed; seeds appear in output headers.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import acceptance
from .bijection import carray_to_dtableau, dtableau_to_carray
from .carray import (
    array_from_json,
    array_from_text,
    array_rows,
    array_to_json,
    array_to_text,
    classify,
    enumerate_carrays,
    enumerate_normal,
    normalize,
)
from .grassmann import IDENTITIES, check_identity
from .series import (
    carini_drensky,
    dimension,
    gamma_coefficients,
    hilbert_by_dimension,
    hilbert_by_tableaux,
)
from .straighten import lincomb_to_json, straighten
from .tableaux import (
    tableau_from_json,
    tableau_from_text,
    tableau_to_json,
    tableau_to_text,
)

HILBERT_METHODS = {
    "cd": carini_drensky,
    "tableaux": hilbert_by_tableaux,
    "dims": hilbert_by_dimension,
}


def _parse_content(text: str) -> tuple[int, ...]:
    items = [piece for piece in text.replace(",", " ").split() if piece]
    return tuple(int(piece) for piece in items)


def _read_array(args) -> tuple:
    data = sys.stdin.read()
    if args.json:
        return array_from_json(json.loads(data))
    return array_from_text(data)


def _read_tableau(args) -> tuple:
    data = sys.stdin.read()
    if args.json:
        return tableau_from_json(json.loads(data))
    return tableau_from_text(data)


def _print_array(s, as_json: bool) -> None:
    if as_json:
        print(json.dumps(array_to_json(s)))
    else:
        print(array_to_text(s))


def _print_tableau(t, as_json: bool) -> None:
    if as_json:
        print(json.dumps(tableau_to_json(t)))
    else:
        print(tableau_to_text(t))


def cmd_convert(args) -> int:
    if args.to == "dtableau":
        _print_tableau(carray_to_dtableau(_read_array(args)), args.json)
    else:
        _print_array(dtableau_to_carray(_read_tableau(args)), args.json)
    return 0


def cmd_normalize(args) -> int:
    sign, carr = normalize(_read_array(args))
    if args.json:
        payload = {"sign": sign}
        if sign:
            payload.update(array_to_json(carr))
        print(json.dumps(payload))
    elif sign == 0:
        print("0")
    else:
        print(f"{sign:+d}")
        print(array_to_text(carr))
    return 0


def cmd_classify(args) -> int:
    print(classify(_read_array(args)))
    return 0


def cmd_straighten(args) -> int:
    stats: dict | None = {} if args.stats else None
    print(json.dumps(lincomb_to_json(straighten(_read_array(args), stats))))
    if stats is not None:
        print(
            " ".join(f"{name}={value}" for name, value in stats.items()),
            file=sys.stderr,
        )
    return 0


def _array_line(s) -> str:
    top, bottom = array_rows(s)
    return " ".join(map(str, top)) + " / " + " ".join(map(str, bottom))


def cmd_enumerate(args) -> int:
    content = _parse_content(args.content)
    # the c-array enumerator builds all (n-1)!! matchings of the n
    # entries; the normal one backtracks and grows with its output
    # (1^18 prints in about 1 s, 1^20 in about 3 s)
    if sum(content) >= (20 if args.normal else 16):
        print(f"warning: {sum(content)} entries; this may be slow", file=sys.stderr)
    arrays = enumerate_normal(content) if args.normal else enumerate_carrays(content)
    if args.json:
        print(json.dumps([array_to_json(s) for s in arrays]))
    else:
        for s in arrays:
            print(_array_line(s))
    return 0


def cmd_dims(args) -> int:
    print(dimension(_parse_content(args.content)))
    return 0


def cmd_hilbert(args) -> int:
    # the cost grows with the number of variables, not the degree:
    # --k 3 --maxdeg 20 takes well under a second on every method, while
    # k = 10 at --maxdeg 8 takes seconds
    if args.k >= 10:
        print(
            f"warning: k={args.k} variables; this may be slow",
            file=sys.stderr,
        )
    print(HILBERT_METHODS[args.method](args.k, args.maxdeg))
    return 0


def cmd_codim(args) -> int:
    coeffs = gamma_coefficients(args.max_m)
    if args.json:
        print(json.dumps([str(c) for c in coeffs]))
    else:
        print(" ".join(str(c) for c in coeffs))
    return 0


def cmd_verify(args) -> int:
    gens = IDENTITIES[args.identity][1] if args.generators is None else args.generators
    witness = check_identity(
        args.identity, samples=args.samples, gens=gens, seed=args.seed
    )
    print(
        f"identity={args.identity} samples={args.samples} "
        f"generators={gens} seed={args.seed}"
    )
    if witness is None:
        print("ok: all substitutions vanished")
        return 0
    index, matrices = witness
    print(f"counterexample at sample {index}:")
    for v, w in enumerate(matrices, start=1):
        print(f"  w{v} = {w!r}")
    return 1


def cmd_selftest(args) -> int:
    """Run every acceptance check: a PASS/FAIL table on stdout (or, with
    ``--json``, one JSON object) and each check's seconds on stderr."""
    if not args.json:
        print(f"carrays selftest (grassmann seed={acceptance.GRASSMANN_SEED})")
    checks = []
    for check_id in acceptance.CHECKS:
        start = time.perf_counter()
        result = acceptance.run_check(check_id)
        seconds = time.perf_counter() - start
        print(f"{result.check_id}: {seconds:.3f} s", file=sys.stderr, flush=True)
        checks.append(
            {
                "id": result.check_id,
                "passed": result.passed,
                "detail": result.detail,
                "seconds": seconds,
            }
        )
        if not args.json:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status}  {result.check_id:32}  {result.detail}")
    passed = sum(c["passed"] for c in checks)
    if args.json:
        print(
            json.dumps(
                {"grassmann_seed": acceptance.GRASSMANN_SEED, "checks": checks}
            )
        )
    else:
        print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carrays",
        description=(
            "Exact combinatorics of commutator arrays: bijection to "
            "double-shape tableaux, straightening to the normal basis, "
            "Grassmann-matrix verification, Hilbert and codimension series."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "convert", help="convert between a c-array and its d-tableau (stdin)"
    )
    p.add_argument("--to", choices=("dtableau", "carray"), required=True)
    p.add_argument("--json", action="store_true", help="JSON input and output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("normalize", help="signed c-array form of an array (stdin)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("classify", help="raw, c_array or normal (stdin)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "straighten",
        help="rewrite an array (stdin) in the normal basis; JSON output",
    )
    p.add_argument("--json", action="store_true", help="JSON input as well")
    p.add_argument(
        "--stats",
        action="store_true",
        help="print rewriting steps, peak live terms and the largest "
        "denominator to stderr",
    )
    p.set_defaults(func=cmd_straighten)

    p = sub.add_parser("enumerate", help="all (normal) c-arrays of a content")
    p.add_argument("--content", required=True, help="comma-separated counts")
    p.add_argument("--normal", action="store_true", help="normal c-arrays only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("dims", help="dimension of the span for a content")
    p.add_argument("--content", required=True, help="comma-separated counts")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("hilbert", help="Hilbert series in k variables")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--maxdeg", type=int, default=8)
    p.add_argument("--method", choices=HILBERT_METHODS, default="cd")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("codim", help="codimension series coefficients")
    p.add_argument("--max-m", type=int, required=True, dest="max_m")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_codim)

    p = sub.add_parser(
        "verify",
        help="randomized vanishing check on supertrace-zero matrices: c3 "
        "is [[x1,x2],x3], p the array (2,1)(3,1)(4,1), c2 the bare "
        "commutator (1,2), a non-identity that shows the failure path",
    )
    p.add_argument("--identity", choices=sorted(IDENTITIES), required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--generators", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "selftest",
        help="run every acceptance check; per-check seconds go to stderr",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print each check's id, pass flag, detail and seconds as JSON",
    )
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
