"""Write the golden verdict corpus, tests/golden/classify.json.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Each entry holds one input table as an nlie/1 document and the payload
`nlie classify --json` prints for it.  The payload has two tiers:

* contract tier -- status, label, candidates.  These never change.  The one
  exception is an entry marked `known_miss`: it may move from
  `family_only` to `exact` with the same label (the witness is then
  checked by the corpus test like every other).
* witness tier -- witness, steps, notes.  These may change only in a
  change that says so.

Regenerating over an existing corpus refuses to write a file whose
contract tier differs from the old one, and refuses any stored witness
that fails `verify_isomorphism`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from nlie.algebra import Algebra
from nlie.catalog import ClassLabel, canonical, np1_labels, np2_labels
from nlie.cli import main as cli_main
from nlie.exactlin import Matrix
from nlie.io import parse_algebra, serialize_algebra
from nlie.transform import (
    change_basis_multilinear, random_basis_change, verify_isomorphism,
)

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "classify.json")
CONTRACT = ("status", "label", "candidates")
WITNESS = ("witness", "steps", "notes")
D_R_ROUTED = {"D_r", "d4", "r1", "r2"}

# Fixed arity-3 basis changes of D_r-routed classes (the benchmark's `height`
# inputs that do not depend on its seed); True marks the three on which
# classify returns family_only although the matrix itself is a witness.
HEIGHT_FIXED = [
    (ClassLabel("D_r", r=3), True,
     [[8, 8, -7, -12], [-18, 11, -16, -1], [-28, 22, -17, 20], [-15, 23, 26, 23]]),
    (ClassLabel("d4"), True,
     [[-8, -1, -9, 2, -5], [7, -10, 5, 8, -7], [-4, 4, 9, -5, 2],
      [-8, -5, 1, -10, 4], [-9, -8, 10, 8, -2]]),
    (ClassLabel("r1", r=4), True,
     [[-9, -16, 18, -6, 27], [-10, -30, -6, 20, -30], [-8, -8, -8, 15, 15],
      [-30, -21, -14, 30, -29], [-15, -12, 22, 1, -20]]),
    (ClassLabel("D_r", r=4), False,
     [[-9, -16, 18, -6], [27, -10, -30, -6], [20, -30, -8, -8], [-8, 15, 15, -30]]),
    (ClassLabel("r1", r=4), False,
     [[-17, 2, -1, -2, 20], [-20, -6, -9, 12, 4], [28, 9, -2, 10, -20],
      [4, -26, 1, -12, 27], [-5, -26, 4, -22, 21]]),
]

# The family_only and unresolved fixtures of tests/test_classify.py, as
# (arity, dim, {ascending 0-based key: {0-based index: coefficient}}).
FIXTURES = [
    ("family_only definite D_r(r=3)", 3, 4,
     {(1, 2, 3): {0: -1}, (0, 2, 3): {1: 1}, (0, 1, 3): {2: -1}}),
    ("family_only non-square C1", 3, 4, {(0, 2, 3): {1: 1}, (1, 2, 3): {0: 2}}),
    ("unresolved sparse two-row", 3, 5, {(0, 2, 3): {0: 1}, (2, 3, 4): {1: 1}}),
    ("unresolved unipotent one-map", 3, 5,
     {(0, 3, 4): {0: 1}, (1, 3, 4): {0: 1, 1: 1}, (2, 3, 4): {2: 1}}),
]


def _moved(n, label, t):
    return change_basis_multilinear(canonical(n, label), t)


def inputs():
    """(id, algebra, known_miss) for every corpus input, in file order."""
    for bound, seeds, arities in ((3, (1, 2), (3, 4)), (30, (1,), (3,))):
        for n in arities:
            for label in np1_labels(n) + np2_labels(n):
                if bound == 30 and label.family in D_R_ROUTED:
                    continue
                d = label.dim_for(n)
                for s in seeds:
                    t = random_basis_change(d, seed=s, bound=bound)
                    yield (f"n={n} {label} seed={s} bound={bound}",
                           _moved(n, label, t), False)
    for i, (label, miss, rows) in enumerate(HEIGHT_FIXED, start=1):
        yield f"n=3 {label} height-fixed {i}", _moved(3, label, Matrix(rows)), miss
    for name, n, d, spec in FIXTURES:
        table = {key: tuple(vals.get(i, 0) for i in range(d))
                 for key, vals in spec.items()}
        yield name, Algebra(n, d, table), False


def payload(document: dict) -> dict:
    """What `nlie classify --json` prints for an nlie/1 document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli_main(["classify", "--json", path])
    return json.loads(out.getvalue())


def witness_holds(document: dict, result: dict) -> bool:
    """Does the payload's witness carry its input onto the canonical table
    of the payload's label?  The label string is read back through the
    catalog's own printing of the class labels."""
    if result["witness"] is None:
        return True
    a = parse_algebra(json.dumps(document))
    label = label_from_string(result["label"])
    return verify_isomorphism(a, canonical(a.arity, label), Matrix(result["witness"]))


def label_from_string(text: str) -> ClassLabel:
    family, _, rest = text.partition("(")
    kwargs = {}
    for part in filter(None, rest.rstrip(")").split("; ")):
        key, _, value = part.partition("=")
        if key == "stu":
            kwargs[key] = tuple(value.split(","))
        elif key == "r":
            kwargs[key] = int(value)
        else:
            kwargs[key] = value
    label = ClassLabel(family, **kwargs)
    if str(label) != text:
        raise ValueError(f"label {text!r} does not read back")
    return label


def contract_changes(old: dict, new: dict) -> list:
    """Ids whose contract tier differs between two corpora, allowing a
    known miss to move from family_only to exact with the same label."""
    changed = []
    new_by_id = {e["id"]: e for e in new["entries"]}
    for entry in old["entries"]:
        fresh = new_by_id.get(entry["id"])
        if fresh is None:
            changed.append(entry["id"])
            continue
        was, now = entry["verdict"], fresh["verdict"]
        if all(was[k] == now[k] for k in CONTRACT):
            continue
        if (entry["known_miss"] and was["status"] == "family_only"
                and now["status"] == "exact" and was["label"] == now["label"]):
            continue
        changed.append(entry["id"])
    return changed


def build() -> dict:
    entries = []
    for ident, a, miss in inputs():
        document = json.loads(serialize_algebra(a))
        verdict = payload(document)
        if not witness_holds(document, verdict):
            raise SystemExit(f"{ident}: the witness does not verify")
        entries.append({"id": ident, "known_miss": miss, "input": document,
                        "verdict": verdict})
    return {"format": "nlie-golden-classify/1", "entries": entries}


def main() -> int:
    corpus = build()
    if os.path.exists(CORPUS):
        with open(CORPUS, encoding="utf-8") as handle:
            changed = contract_changes(json.load(handle), corpus)
        if changed:
            print("contract tier changed; corpus not written:", file=sys.stderr)
            for ident in changed:
                print(f"  {ident}", file=sys.stderr)
            return 1
    lines = ",\n".join(json.dumps(entry) for entry in corpus["entries"])
    with open(CORPUS, "w", encoding="utf-8") as handle:
        handle.write(f'{{"format": "{corpus["format"]}", "entries": [\n{lines}\n]}}\n')
    print(f"wrote {len(corpus['entries'])} entries to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
