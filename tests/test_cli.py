"""End-to-end checks for the command-line interface.

Every test drives ``nlie.cli.main`` in process and inspects the exit
code plus captured output; one subprocess test at the bottom confirms
``python3 -m nlie`` is wired up.
"""

import importlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from nlie.algebra import Algebra
from nlie.catalog import ClassLabel, canonical
from nlie.classify import classify
from nlie.cli import main
from nlie.errors import NlieError
from nlie.io import parse_algebra, parse_matrix, serialize_algebra, serialize_matrix
from nlie.transform import change_basis_multilinear, random_basis_change

F = Fraction


def unit(dim, i, c=1):
    return tuple(F(c) if j == i else F(0) for j in range(dim))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def d3_file(tmp_path):
    path = tmp_path / "d3.json"
    path.write_text(serialize_algebra(canonical(3, ClassLabel("d3"))))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    a = Algebra(3, 5, {(0, 1, 2): unit(5, 3), (0, 1, 3): unit(5, 0)})
    path = tmp_path / "broken.json"
    path.write_text(serialize_algebra(a))
    return str(path)


class TestValidate:
    def test_valid_table(self, capsys, d3_file):
        code, out, _ = run(capsys, "validate", d3_file)
        assert code == 0
        assert out.startswith("valid: arity 3, dimension 5")

    def test_valid_json(self, capsys, d3_file):
        code, out, _ = run(capsys, "validate", d3_file, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["valid"] is True and payload["violations"] == []

    def test_broken_table(self, capsys, broken_file):
        code, out, _ = run(capsys, "validate", broken_file)
        assert code == 1
        assert "derivation identity fails" in out
        assert "residual" in out

    def test_broken_json(self, capsys, broken_file):
        code, out, _ = run(capsys, "validate", broken_file, "--json")
        payload = json.loads(out)
        assert code == 1
        assert payload["valid"] is False
        assert all({"x", "y", "residual"} <= set(v) for v in
                   payload["violations"])

    def test_strict_rejects_unreduced_input(self, capsys, tmp_path):
        mangled = tmp_path / "m.json"
        mangled.write_text(json.dumps({
            "format": "nlie/1", "arity": 3, "dim": 4, "field": "Q",
            "brackets": [{"indices": [1, 2, 3], "coeffs": {"4": "2/2"}}],
        }))
        code, _, err = run(capsys, "validate", str(mangled))
        assert code == 2 and "rational not reduced" in err
        code, _, _ = run(capsys, "validate", str(mangled), "--lenient")
        assert code == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/no/such/file.json")
        assert code == 2 and err.startswith("error:")


class TestInvariants:
    def test_text_report(self, capsys, d3_file):
        code, out, _ = run(capsys, "invariants", d3_file)
        assert code == 0
        assert "dim derived algebra: 3" in out
        assert "dim center: 0" in out
        assert "dim derivation algebra: 12" in out

    def test_json_report(self, capsys, d3_file):
        code, out, _ = run(capsys, "invariants", d3_file, "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["dim_derived"] == 3
        assert payload["central_summand_dim"] == 0

    def test_gate_on_broken_input(self, capsys, broken_file):
        code, out, _ = run(capsys, "invariants", broken_file)
        assert code == 1 and "derivation identity fails" in out


class TestDerinfo:
    def test_d3_dimension(self, capsys, d3_file):
        code, out, _ = run(capsys, "derinfo", d3_file)
        assert code == 0
        assert out.splitlines()[0] == "dim Der(A) = 12"

    def test_json(self, capsys, d3_file):
        code, out, _ = run(capsys, "derinfo", d3_file, "--json")
        assert code == 0 and json.loads(out)["dim_der"] == 12


class TestGen:
    def test_stdout_document(self, capsys):
        code, out, _ = run(capsys, "gen", "--arity", "3", "--class", "d3")
        assert code == 0
        assert parse_algebra(out) == canonical(3, ClassLabel("d3"))

    def test_gen_then_validate(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "gen", "--arity", "3", "--class", "d3",
                           "-o", str(target))
        assert code == 0 and "wrote d3" in out
        code, _, _ = run(capsys, "validate", str(target))
        assert code == 0

    def test_parameter_defaults(self, capsys):
        code, out, _ = run(capsys, "gen", "--arity", "3", "--class", "d5")
        assert code == 0
        assert parse_algebra(out) == canonical(3, ClassLabel("d5", beta=F(2)))

    def test_rational_parameter(self, capsys):
        code, out, _ = run(capsys, "gen", "--arity", "3", "--class", "c6",
                           "--alpha", "2/3")
        want = canonical(3, ClassLabel("c6", alpha=F(2, 3)))
        assert code == 0 and parse_algebra(out) == want

    def test_stu_parameter(self, capsys):
        code, out, _ = run(capsys, "gen", "--arity", "3", "--class", "d7",
                           "--stu=-2,3,1/2")
        want = canonical(3, ClassLabel("d7", stu=(F(-2), F(3), F(1, 2))))
        assert code == 0 and parse_algebra(out) == want

    def test_bad_parameter_value(self, capsys):
        code, _, err = run(capsys, "gen", "--arity", "3", "--class", "c6",
                           "--alpha", "x")
        assert code == 2 and "must be a rational" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "--arity", "3", "--class", "q9")
        assert code == 2 and err.startswith("error:")

    def test_missing_required_argument(self, capsys):
        code, _, _ = run(capsys, "gen", "--arity", "3")
        assert code == 2


class TestTransformAndIso:
    def prepare(self, tmp_path, d3_file, seed=5):
        t = random_basis_change(5, seed=seed, bound=3)
        mfile = tmp_path / "t.json"
        mfile.write_text(serialize_matrix(t))
        moved = tmp_path / "moved.json"
        return str(mfile), str(moved), t

    def test_transform_matches_library(self, capsys, tmp_path, d3_file):
        mfile, moved, t = self.prepare(tmp_path, d3_file)
        code, _, _ = run(capsys, "transform", d3_file, "--matrix", mfile,
                         "-o", moved)
        assert code == 0
        want = change_basis_multilinear(canonical(3, ClassLabel("d3")), t)
        assert parse_algebra(open(moved).read()) == want

    def test_iso_accepts_the_right_witness(self, capsys, tmp_path, d3_file):
        mfile, moved, _ = self.prepare(tmp_path, d3_file)
        run(capsys, "transform", d3_file, "--matrix", mfile, "-o", moved)
        code, out, _ = run(capsys, "iso", moved, d3_file, "--witness", mfile)
        assert code == 0 and "isomorphic" in out

    def test_iso_rejects_a_wrong_witness(self, capsys, tmp_path, d3_file):
        mfile, moved, _ = self.prepare(tmp_path, d3_file)
        run(capsys, "transform", d3_file, "--matrix", mfile, "-o", moved)
        other = tmp_path / "other.json"
        other.write_text(serialize_matrix(random_basis_change(5, seed=99)))
        code, out, _ = run(capsys, "iso", moved, d3_file,
                           "--witness", str(other))
        assert code == 1 and "not isomorphic" in out

    def test_singular_matrix_is_a_usage_error(self, capsys, tmp_path,
                                               d3_file):
        rows = [[F(0)] * 5 for _ in range(5)]
        bad = tmp_path / "sing.json"
        from nlie.exactlin import Matrix
        bad.write_text(serialize_matrix(Matrix(rows)))
        code, _, err = run(capsys, "transform", d3_file,
                           "--matrix", str(bad))
        assert code == 2 and err.startswith("error:")


class TestClassify:
    def moved_file(self, tmp_path, label, seed=5):
        a = canonical(3, label)
        t = random_basis_change(5, seed=seed, bound=3)
        path = tmp_path / "input.json"
        path.write_text(serialize_algebra(change_basis_multilinear(a, t)))
        return str(path)

    def test_exact_text(self, capsys, tmp_path):
        path = self.moved_file(tmp_path, ClassLabel("d3"))
        code, out, _ = run(capsys, "classify", path)
        assert code == 0
        assert "status: exact" in out
        assert "class: d3" in out
        assert "witness columns" in out

    def test_verbose_lists_steps(self, capsys, tmp_path):
        path = self.moved_file(tmp_path, ClassLabel("d3"))
        code, out, _ = run(capsys, "classify", path, "--verbose")
        assert code == 0 and "normalization steps:" in out
        assert "  1. " in out

    def test_json_is_byte_identical(self, capsys, tmp_path):
        path = self.moved_file(tmp_path, ClassLabel("c3"))
        _, first, _ = run(capsys, "classify", path, "--json")
        _, second, _ = run(capsys, "classify", path, "--json")
        assert first == second
        payload = json.loads(first)
        assert payload["status"] == "exact" and payload["label"] == "c3"

    def test_witness_out_feeds_iso(self, capsys, tmp_path):
        path = self.moved_file(tmp_path, ClassLabel("d5", beta=F(2)))
        wfile = tmp_path / "w.json"
        code, out, _ = run(capsys, "classify", path,
                           "--witness-out", str(wfile))
        assert code == 0 and "d5(beta=2)" in out
        canon = tmp_path / "canon.json"
        _, doc, _ = run(capsys, "gen", "--arity", "3", "--class", "d5",
                        "--beta", "2")
        canon.write_text(doc)
        code, _, _ = run(capsys, "iso", path, str(canon),
                         "--witness", str(wfile))
        assert code == 0
        parse_matrix(wfile.read_text())

    def test_checks_the_identity_once(self, capsys, tmp_path, monkeypatch):
        # c3 splits a central line off and reclassifies the core
        path = self.moved_file(tmp_path, ClassLabel("c3"))
        real = importlib.import_module("nlie.algebra").check_jacobi
        calls = []

        def counted(a):
            calls.append(a)
            return real(a)

        for name in ("nlie.cli", "nlie.classify"):
            monkeypatch.setattr(importlib.import_module(name), "check_jacobi", counted)
        code, out, _ = run(capsys, "classify", path)
        assert code == 0 and "class: c3" in out
        assert len(calls) == 1

    def test_valid_table_outside_the_dimension_window(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(serialize_algebra(Algebra.abelian(3, 6)))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and out == ""
        assert err == ("error: classification covers dimensions n+1 and n+2; "
                       "got dimension 6 at arity 3\n")

    def test_failed_witness_check_exits_two(self, capsys, tmp_path, monkeypatch):
        # a witness that fails its own check is a classifier bug; it must
        # surface as an NlieError (exit 2), not as a traceback
        path = self.moved_file(tmp_path, ClassLabel("d3"))
        monkeypatch.setattr(importlib.import_module("nlie.classify"),
                            "verify_isomorphism", lambda *args: False)
        message = "witness verification failed for d3; this is a bug in the classifier"
        with pytest.raises(NlieError, match=message):
            classify(parse_algebra(open(path).read()))
        code, out, err = run(capsys, "classify", path)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_family_only_exits_zero(self, capsys, tmp_path):
        a = Algebra(3, 4, {(1, 2, 3): unit(4, 0, -1),
                           (0, 2, 3): unit(4, 1),
                           (0, 1, 3): unit(4, 2, -1)})
        path = tmp_path / "definite.json"
        path.write_text(serialize_algebra(a))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert "status: family_only" in out
        assert "class: D_r(r=3)" in out
        assert "note:" in out

    def test_unresolved_exits_one(self, capsys, tmp_path):
        a = Algebra(3, 5, {(0, 2, 3): unit(5, 0), (2, 3, 4): unit(5, 1)})
        path = tmp_path / "gap.json"
        path.write_text(serialize_algebra(a))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 1
        assert "status: unresolved" in out
        assert "candidate families:" in out

    def test_broken_input_exits_one(self, capsys, broken_file):
        code, out, _ = run(capsys, "classify", broken_file)
        assert code == 1 and "derivation identity fails" in out


class TestOrbitTest:
    def test_default_passes(self, capsys, d3_file):
        code, out, _ = run(capsys, "orbit-test", d3_file, "--seeds", "3")
        assert code == 0
        assert "orbit test: 3/3 passed (bound 3)" in out
        assert "seed 1: ok" in out and "seed 132: ok" in out

    def test_env_seed_override(self, capsys, monkeypatch, d3_file):
        monkeypatch.setenv("NLIE_SEED", "42")
        code, out, _ = run(capsys, "orbit-test", d3_file, "--seeds", "2")
        assert code == 0
        assert "seed 42: ok" in out and "seed 173: ok" in out

    def test_env_seed_must_be_integer(self, capsys, monkeypatch, d3_file):
        monkeypatch.setenv("NLIE_SEED", "pi")
        code, _, err = run(capsys, "orbit-test", d3_file)
        assert code == 2 and "NLIE_SEED" in err

    def test_json_report(self, capsys, d3_file):
        code, out, _ = run(capsys, "orbit-test", d3_file, "--seeds", "2",
                           "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["failures"] == [] and payload["base_seed"] == 1


class TestCatalog:
    def test_text_dump(self, capsys):
        code, out, _ = run(capsys, "catalog", "--arity", "3")
        assert code == 0
        assert "d3 (dimension 5)" in out
        assert "B1 (dimension 4)" in out
        assert "[e" in out

    def test_json_documents_parse(self, capsys):
        code, out, _ = run(capsys, "catalog", "--arity", "3", "--json")
        payload = json.loads(out)
        assert code == 0
        labels = [c["label"] for c in payload["classes"]]
        assert len(labels) == len(set(labels))
        for entry in payload["classes"]:
            parse_algebra(json.dumps(entry["document"]))

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "catalog", "--arity", "4")
        _, second, _ = run(capsys, "catalog", "--arity", "4")
        assert first == second


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_malformed_json_input(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and "line 1" in err


def test_module_entry_point(tmp_path):
    doc = serialize_algebra(canonical(3, ClassLabel("d3")))
    path = tmp_path / "d3.json"
    path.write_text(doc)
    proc = subprocess.run([sys.executable, "-m", "nlie", "derinfo", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "dim Der(A) = 12"
