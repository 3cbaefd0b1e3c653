"""Show that the benchmark's checks catch wrong outputs.

    python3 perfbench/selftest.py

Runs one operation of three workloads, confirms the checker accepts the
real result, then corrupts one witness entry, one transported coefficient
and one field of the CLI's JSON, and confirms the checker flags each.
Exits 0 when every corruption is flagged, 1 otherwise.  Takes a few
seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import nlie  # noqa: E402
import nlie.cli  # noqa: E402,F401
import workloads  # noqa: E402


def bump(x):
    return x + Fraction(1)


def corrupt_witness(results):
    verdict = results[0]
    rows = [list(row) for row in verdict.witness.entries]
    rows[0][0] = bump(rows[0][0])
    return [dataclasses.replace(verdict, witness=nlie.Matrix(rows))]


def corrupt_transport(results):
    direct, via_matrix, same = results
    table = dict(via_matrix.table)
    key = sorted(table)[0]
    table[key] = (bump(table[key][0]),) + table[key][1:]
    return [direct, nlie.Algebra(via_matrix.arity, via_matrix.dim, table), same]


def corrupt_both_routes(results):
    direct, _, same = results
    moved = corrupt_transport([direct, direct, same])[1]
    return [moved, moved, same]


def corrupt_invariants(results):
    doc = json.loads(results[1][1])
    doc["dim_derived"] += 1
    results = list(results)
    results[1] = (results[1][0], json.dumps(doc, indent=2) + "\n")
    return results


def main() -> int:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, "out"))
    try:
        rng = random.Random(1)
        d3 = workloads.make_label(nlie, "d3")
        d2 = workloads.make_label(nlie, "d2")
        ops = {
            "roundtrip": workloads.classify_op(nlie, 3, d3, workloads.basis_change(rng, 5, 3)),
            "transport": workloads.transport_op(nlie, 4, d3, workloads.basis_change(rng, 6, 3),
                                                expand=True),
            "analyse": workloads.analyse_op(nlie, 4, d2, workloads.basis_change(rng, 6, 3),
                                            workloads.basis_change(rng, 6, 3),
                                            os.path.join(workdir, "op")),
        }
        # corrupting both routes alike is caught only by the checker's own expansion
        cases = [
            ("witness entry", ops["roundtrip"], corrupt_witness),
            ("transported coefficient, one route", ops["transport"], corrupt_transport),
            ("transported coefficient, both routes", ops["transport"], corrupt_both_routes),
            ("invariants --json field", ops["analyse"], corrupt_invariants),
        ]
        ok = True
        results = {}
        for what, op, corrupt in cases:
            if id(op) not in results:
                results[id(op)] = op.run()
                clean = op.check(results[id(op)])
                print(f"{op.name}: real result, problems {clean}")
                ok &= not clean
            flagged = op.check(corrupt(results[id(op)]))
            print(f"  corrupted {what}: {'flagged' if flagged else 'NOT flagged'} {flagged[:1]}")
            ok &= bool(flagged)
        print("selftest:", "every corruption flagged" if ok else "FAILED")
        return 0 if ok else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
