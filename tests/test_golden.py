"""The golden verdict corpus: classify's payload on a fixed input set.

tests/golden/classify.json is written by tests/golden/regen.py, which
documents the two tiers.  The contract tier (status, label, candidates)
must match, except that a known miss may become exact with the same
label.  The witness tier (witness, steps, notes) must match too; a change
that alters it regenerates the file and says so.  Every witness, stored
or freshly computed, must carry its input onto the canonical table.
"""

import importlib.util
import json
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "golden_regen", os.path.join(HERE, "golden", "regen.py"))
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

with open(regen.CORPUS, encoding="utf-8") as _handle:
    ENTRIES = json.load(_handle)["entries"]


def test_corpus_covers_every_input_once():
    ids = [entry["id"] for entry in ENTRIES]
    assert len(ids) == len(set(ids)) == 145
    assert sum(entry["known_miss"] for entry in ENTRIES) == 3


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["id"] for e in ENTRIES])
def test_verdict_matches_the_corpus(entry):
    stored = entry["verdict"]
    got = regen.payload(entry["input"])
    assert regen.witness_holds(entry["input"], stored), "stored witness fails"
    assert regen.witness_holds(entry["input"], got), "computed witness fails"
    if (entry["known_miss"] and stored["status"] == "family_only"
            and got["status"] == "exact"):
        assert got["label"] == stored["label"]
        return
    for key in regen.CONTRACT:
        assert got[key] == stored[key], f"contract tier: {key}"
    for key in regen.WITNESS:
        assert got[key] == stored[key], f"witness tier: {key}"
