"""Command-line front end.

Subcommands cover the full workflow: file validation, invariants,
derivation info, canonical-table generation, basis transport, witness
checking, classification, randomized orbit self-tests, and a catalog
dump.  Exit codes: 0 for success, 1 for a negative mathematical result
(a broken derivation identity, a failed isomorphism, an unresolved
classification), 2 for usage or I/O problems.  All reports are plain
text by default and JSON with --json; for fixed inputs and seeds the
bytes are identical from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .algebra import (
    Algebra,
    check_jacobi,
    derivation_algebra,
    invariant_signature,
    table_in_basis,
)
from .catalog import ClassLabel, canonical, np1_labels, np2_labels
from .classify import EXACT, FAMILY_ONLY, UNRESOLVED, _classify_valid
from .errors import InvalidParameter, NlieError
from .io import parse_algebra, parse_matrix, serialize_algebra, serialize_matrix
from .transform import (
    change_basis_matrix,
    change_basis_multilinear,
    random_basis_change,
    verify_isomorphism,
)

_DEFAULT_ORBIT_SEED = 1


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_algebra(path: str, lenient: bool) -> Algebra:
    return parse_algebra(_read(path), lenient=lenient)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _coeff_term(coeff: Fraction, index: int) -> str:
    base = f"e{index + 1}"
    mag = abs(coeff)
    return base if mag == 1 else f"{mag}*{base}"


def _format_value(vec: Sequence[Fraction]) -> str:
    parts: List[str] = []
    for i, c in enumerate(vec):
        if c == 0:
            continue
        if not parts:
            parts.append(("-" if c < 0 else "") + _coeff_term(c, i))
        else:
            parts.append(("- " if c < 0 else "+ ") + _coeff_term(c, i))
    return " ".join(parts) if parts else "0"


def _format_bracket(combo: Sequence[int], vec: Sequence[Fraction]) -> str:
    args = ", ".join(f"e{i + 1}" for i in combo)
    return f"[{args}] = {_format_value(vec)}"


def _bracket_lines(a: Algebra) -> List[str]:
    return [_format_bracket(combo, vec) for combo, vec in a.items()]


def _violation_payload(report) -> List[dict]:
    out = []
    for v in report.violations:
        out.append({
            "x": [i + 1 for i in v.x_combo],
            "y": [i + 1 for i in v.y_tuple],
            "residual": [str(c) for c in v.residual],
        })
    return out


def _print_violations(report) -> None:
    shown = report.violations[:10]
    print(f"derivation identity fails in {len(report.violations)} place(s):")
    for v in shown:
        x = ",".join(f"e{i + 1}" for i in v.x_combo)
        y = ",".join(f"e{i + 1}" for i in v.y_tuple)
        print(f"  x=[{x}] y=({y}) residual {_format_value(v.residual)}")
    if len(report.violations) > len(shown):
        print(f"  ... and {len(report.violations) - len(shown)} more")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    a = _load_algebra(args.file, args.lenient)
    report = check_jacobi(a)
    if args.json:
        _emit_json({
            "command": "validate",
            "arity": a.arity,
            "dim": a.dim,
            "brackets": len(a.table),
            "valid": report.ok,
            "violations": _violation_payload(report),
        })
        return 0 if report.ok else 1
    if report.ok:
        print(f"valid: arity {a.arity}, dimension {a.dim}, "
              f"{len(a.table)} nonzero bracket(s)")
        return 0
    _print_violations(report)
    return 1


def _require_valid(a: Algebra, as_json: bool) -> Optional[int]:
    report = check_jacobi(a)
    if report.ok:
        return None
    if as_json:
        _emit_json({"command": "validate", "valid": False,
                    "violations": _violation_payload(report)})
    else:
        _print_violations(report)
    return 1


def _cmd_invariants(args) -> int:
    a = _load_algebra(args.file, args.lenient)
    failed = _require_valid(a, args.json)
    if failed is not None:
        return failed
    sig = invariant_signature(a)
    if args.json:
        _emit_json({
            "command": "invariants",
            "arity": sig.arity,
            "dim": sig.dim,
            "dim_derived": sig.dim_derived,
            "dim_center": sig.dim_center,
            "dim_center_in_derived": sig.dim_center_in_derived,
            "dim_der_algebra": sig.dim_der_algebra,
            "central_summand_dim": sig.central_summand_dim,
        })
        return 0
    print(f"arity: {sig.arity}")
    print(f"dimension: {sig.dim}")
    print(f"dim derived algebra: {sig.dim_derived}")
    print(f"dim center: {sig.dim_center}")
    print(f"dim center inside derived: {sig.dim_center_in_derived}")
    print(f"dim derivation algebra: {sig.dim_der_algebra}")
    print(f"central summand dim: {sig.central_summand_dim}")
    return 0


def _cmd_derinfo(args) -> int:
    a = _load_algebra(args.file, args.lenient)
    failed = _require_valid(a, args.json)
    if failed is not None:
        return failed
    der = derivation_algebra(a)
    if args.json:
        _emit_json({"command": "derinfo", "arity": a.arity, "dim": a.dim,
                    "dim_der": der.dim})
        return 0
    print(f"dim Der(A) = {der.dim}")
    print(f"(arity {a.arity}, dimension {a.dim}, "
          f"basis of {der.dim} matrices of size {a.dim}x{a.dim})")
    return 0


def _parse_fraction_arg(raw: str, name: str) -> Fraction:
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameter(f"{name} must be a rational, got {raw!r}: {exc}")


def _label_from_args(args) -> ClassLabel:
    family = args.family
    kwargs = {}
    if args.alpha is not None:
        kwargs["alpha"] = _parse_fraction_arg(args.alpha, "--alpha")
    if args.beta is not None:
        kwargs["beta"] = _parse_fraction_arg(args.beta, "--beta")
    if args.stu is not None:
        parts = args.stu.split(",")
        if len(parts) != 3:
            raise InvalidParameter("--stu takes three comma-separated rationals")
        kwargs["stu"] = tuple(_parse_fraction_arg(p, "--stu") for p in parts)
    if args.r is not None:
        kwargs["r"] = args.r
    # defaults for parametric families, so `gen --class d5` just works
    if family in ("C2", "c5", "c6", "d2") and "alpha" not in kwargs:
        kwargs["alpha"] = Fraction(1)
    if family == "d5" and "beta" not in kwargs:
        kwargs["beta"] = Fraction(2)
    if family == "d7" and "stu" not in kwargs:
        kwargs["stu"] = (Fraction(1), Fraction(0), Fraction(0))
    return ClassLabel(family, **kwargs)


def _cmd_gen(args) -> int:
    label = _label_from_args(args)
    a = canonical(args.arity, label)
    doc = serialize_algebra(a)
    _write_text(args.output, doc)
    if args.output is not None:
        if args.json:
            _emit_json({"command": "gen", "label": str(label),
                        "output": args.output})
        else:
            print(f"wrote {label} at arity {args.arity} to {args.output}")
    return 0


def _cmd_transform(args) -> int:
    a = _load_algebra(args.file, args.lenient)
    t = parse_matrix(_read(args.matrix), lenient=args.lenient)
    moved = change_basis_multilinear(a, t)
    _write_text(args.output, serialize_algebra(moved))
    if args.output is not None and not args.json:
        print(f"wrote transformed table to {args.output}")
    return 0


def _cmd_iso(args) -> int:
    a1 = _load_algebra(args.file1, args.lenient)
    a2 = _load_algebra(args.file2, args.lenient)
    t = parse_matrix(_read(args.witness), lenient=args.lenient)
    ok = verify_isomorphism(a1, a2, t)
    if args.json:
        _emit_json({"command": "iso", "isomorphic": ok})
    elif ok:
        print("isomorphic: the witness carries the first table onto the second")
    else:
        print("not isomorphic under the given witness")
    return 0 if ok else 1


def _cmd_classify(args) -> int:
    a = _load_algebra(args.file, args.lenient)
    failed = _require_valid(a, args.json)
    if failed is not None:
        return failed
    verdict = _classify_valid(a)
    if args.witness_out is not None and verdict.witness is not None:
        _write_text(args.witness_out, serialize_matrix(verdict.witness))
    if args.json:
        _emit_json({
            "command": "classify",
            "status": verdict.status,
            "label": None if verdict.label is None else str(verdict.label),
            "witness": None if verdict.witness is None else
            [[str(x) for x in row] for row in verdict.witness.entries],
            "candidates": list(verdict.candidates),
            "notes": list(verdict.notes),
            "steps": [s.reason for s in verdict.steps],
        })
        return 0 if verdict.status in (EXACT, FAMILY_ONLY) else 1
    print(f"status: {verdict.status}")
    if verdict.label is not None:
        print(f"class: {verdict.label}")
    if verdict.status == UNRESOLVED and verdict.candidates:
        print("candidate families: " + ", ".join(verdict.candidates))
    for note in verdict.notes:
        print(f"note: {note}")
    if args.verbose and verdict.steps:
        print("normalization steps:")
        for i, step in enumerate(verdict.steps, start=1):
            print(f"  {i}. {step.reason}")
    if verdict.status == EXACT:
        print("witness columns (images of the canonical basis):")
        for row in verdict.witness.entries:
            print("  [" + ", ".join(str(x) for x in row) + "]")
    return 0 if verdict.status in (EXACT, FAMILY_ONLY) else 1


def _orbit_seed() -> int:
    raw = os.environ.get("NLIE_SEED")
    if raw is None:
        return _DEFAULT_ORBIT_SEED
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameter(f"NLIE_SEED must be an integer, got {raw!r}")


def _cmd_orbit_test(args) -> int:
    a = _load_algebra(args.file, args.lenient)
    failed = _require_valid(a, args.json)
    if failed is not None:
        return failed
    base = _orbit_seed()
    sig = invariant_signature(a)
    results = []
    for i in range(args.seeds):
        seed = base + 131 * i
        t = random_basis_change(a.dim, seed=seed, bound=args.bound)
        moved = table_in_basis(a, t)
        problems = []
        if not check_jacobi(moved).ok:
            problems.append("derivation identity broken")
        if invariant_signature(moved) != sig:
            problems.append("invariant signature changed")
        if a.dim == a.arity + 2 and \
                change_basis_matrix(a, t) != change_basis_multilinear(a, t):
            problems.append("matrix and multilinear transports disagree")
        results.append((seed, problems))
    bad = [(s, p) for s, p in results if p]
    if args.json:
        _emit_json({
            "command": "orbit-test",
            "seeds": args.seeds,
            "bound": args.bound,
            "base_seed": base,
            "failures": [{"seed": s, "problems": p} for s, p in bad],
        })
        return 1 if bad else 0
    for seed, problems in results:
        line = "ok" if not problems else "; ".join(problems)
        print(f"seed {seed}: {line}")
    print(f"orbit test: {args.seeds - len(bad)}/{args.seeds} passed "
          f"(bound {args.bound})")
    return 1 if bad else 0


def _cmd_catalog(args) -> int:
    labels = np1_labels(args.arity) + np2_labels(args.arity)
    if args.json:
        classes = []
        for lab in labels:
            a = canonical(args.arity, lab)
            classes.append({"label": str(lab),
                            "document": json.loads(serialize_algebra(a))})
        _emit_json({"command": "catalog", "arity": args.arity,
                    "classes": classes})
        return 0
    for lab in labels:
        a = canonical(args.arity, lab)
        print(f"{lab} (dimension {a.dim})")
        for line in _bracket_lines(a):
            print(f"  {line}")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing


def _add_common(sub, lenient=True, as_json=True):
    if lenient:
        sub.add_argument("--lenient", action="store_true",
                         help="normalize unreduced rationals and permuted "
                              "index tuples instead of rejecting them")
    if as_json:
        sub.add_argument("--json", action="store_true",
                         help="emit a JSON report instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlie",
        description="Exact-arithmetic toolkit for n-ary Filippov algebras "
                    "given by structure constants.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check the derivation identity")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("invariants",
                        help="dimension counts preserved by isomorphism")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_invariants)

    p = subs.add_parser("derinfo", help="derivation algebra dimension")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=_cmd_derinfo)

    p = subs.add_parser("gen", help="write a canonical class table")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--class", dest="family", required=True,
                   help="family name, e.g. b1, c5, d3, D_r, r2")
    p.add_argument("--alpha", help="rational parameter for C2/c5/c6/d2")
    p.add_argument("--beta", help="rational parameter for d5")
    p.add_argument("--stu", help="three comma-separated rationals for d7")
    p.add_argument("--r", type=int, help="derived rank for D_r/r1/r2")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    _add_common(p, lenient=False)
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("transform", help="rewrite a table in a new basis")
    p.add_argument("file")
    p.add_argument("--matrix", required=True,
                   help="basis matrix file (columns are the new basis)")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    _add_common(p)
    p.set_defaults(func=_cmd_transform)

    p = subs.add_parser("iso", help="check an isomorphism witness")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--witness", required=True, help="matrix file")
    _add_common(p)
    p.set_defaults(func=_cmd_iso)

    p = subs.add_parser("classify",
                        help="match a table against the canonical catalog")
    p.add_argument("file")
    p.add_argument("--verbose", action="store_true",
                   help="list the normalization steps taken")
    p.add_argument("--witness-out",
                   help="save the witness matrix to this file")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("orbit-test",
                        help="random basis changes preserve the invariants")
    p.add_argument("file")
    p.add_argument("--seeds", type=int, default=10,
                   help="number of sampled basis changes (default 10)")
    p.add_argument("--bound", type=int, default=3,
                   help="entry bound for sampled matrices (default 3)")
    _add_common(p)
    p.set_defaults(func=_cmd_orbit_test)

    p = subs.add_parser("catalog", help="dump every canonical class")
    p.add_argument("--arity", type=int, required=True)
    _add_common(p, lenient=False)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NlieError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
