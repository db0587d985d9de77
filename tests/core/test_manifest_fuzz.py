"""Manifest fuzzing: a damaged ``manifest.json`` never escapes untyped.

``store.load(directory)`` has three outcomes and no fourth: the manifest
loads; it does not parse (a torn write — not UTF-8, not JSON, nested or
numbered past the decoder's limits), so it is quarantined to
``manifest.json.corrupt`` and the store starts cold; or it parses but is
not a manifest, so an ``S2SError`` is raised and the store is left as it
was.  Torn, byte-mutated and tree-mutated manifests are drawn from a seed
(``S2S_DIFF_SEED``; CI runs a second value).
"""

from __future__ import annotations

import copy
import json
import os
import random

import pytest

from repro.core.store import SemanticStore
from repro.errors import S2SError
from repro.workloads import B2BScenario

SEED = int(os.environ.get("S2S_DIFF_SEED", "28"))

HOSTILE_VALUES = [None, True, False, 0, -1, 2, 1.5, 10**400, float("inf"),
                  float("nan"), "", "false", "7", "thing.product.brand", [],
                  [1], [None], ["x"], {}, {"$date": "x"}, [[[]]],
                  {"a": {"b": []}}, "\ud800"]
KEYS = ["version", "generation", "materializations", "class", "attributes",
        "slices", "errors", "source", "fingerprint", "stale", "shapes",
        "entities", "x"]


@pytest.fixture(scope="module")
def saved(tmp_path_factory) -> bytes:
    """The bytes of a valid manifest of a two-source store."""
    s2s = B2BScenario(n_sources=2, n_products=4,
                      seed=SEED).build_middleware(store=True)
    s2s.query("SELECT product")
    s2s.query("SELECT provider")
    directory = tmp_path_factory.mktemp("saved")
    with open(s2s.store.save(str(directory)), "rb") as handle:
        data = handle.read()
    s2s.close()
    return data


class Outcome:
    LOADED, QUARANTINED, REFUSED = "loaded", "quarantined", "refused"


def contents(store: SemanticStore) -> list:
    return [(mat.key, {source_id: slice_.entities
                       for source_id, slice_ in mat.slices.items()})
            for mat in store.materializations()]


def load(data: bytes, directory, good: bytes) -> str:
    """Load ``data`` into a store already holding ``good``'s contents and
    check the outcome's promises; returns which outcome it was."""
    os.makedirs(directory)
    path = os.path.join(directory, "manifest.json")
    with open(path, "wb") as handle:
        handle.write(good)
    store = SemanticStore()
    store.load(str(directory))
    before = contents(store)
    with open(path, "wb") as handle:
        handle.write(data)
    try:
        loaded = store.load(str(directory))
    except S2SError:
        assert contents(store) == before  # left as it was
        return Outcome.REFUSED
    if os.path.exists(path + ".corrupt"):
        assert loaded == 0 and len(store) == 0 and not os.path.exists(path)
        return Outcome.QUARANTINED
    assert loaded == len(store)
    store.status()
    store.export()
    resaved = os.path.join(directory, "resaved")
    store.save(resaved)
    assert SemanticStore().load(resaved) == loaded
    return Outcome.LOADED


@pytest.mark.parametrize("data", [
    b"\xff\xfe{}", b'{"version": 2, "generation": "\xe9"}', b"[" * 100_000,
    b'{"version": 2, "generation": ' + b"7" * 5000 + b"}", b"", b"{",
], ids=["utf-16 bom", "latin-1 text", "deep nesting", "long integer",
        "empty", "torn"])
def test_a_manifest_that_does_not_parse_is_quarantined(data, saved,
                                                       tmp_path):
    assert load(data, tmp_path / "case", saved) == Outcome.QUARANTINED


@pytest.mark.parametrize("name, value", [
    ("stale", "false"), ("stale", 0), ("fingerprint", 5),
    ("fingerprint", ["f"]), ("source", None), ("entities", {}),
    ("fingerprint", "\ud800"), ("source", "x\udfffy"),
], ids=["stale text", "stale a number", "fingerprint a number",
        "fingerprint a list", "source null", "entities an object",
        "fingerprint a lone surrogate", "source a lone surrogate"])
def test_a_slice_field_of_the_wrong_type_is_refused(name, value, saved,
                                                    tmp_path):
    manifest = json.loads(saved)
    manifest["materializations"][0]["slices"][0][name] = value
    data = json.dumps(manifest).encode("utf-8")
    assert load(data, tmp_path / "case", saved) == Outcome.REFUSED


def test_a_surrogate_pair_escape_loads(saved, tmp_path):
    """An escaped pair is one character, which a save writes back; only
    a lone surrogate's escape is refused (the cases above)."""
    manifest = json.loads(saved)
    manifest["materializations"][0]["slices"][0]["fingerprint"] = "\U0001f600"
    data = json.dumps(manifest).encode("utf-8")
    assert b'"\\ud83d\\ude00"' in data
    assert load(data, tmp_path / "case", saved) == Outcome.LOADED


def test_the_saved_manifest_loads(saved, tmp_path):
    assert load(saved, tmp_path / "case", saved) == Outcome.LOADED


def locations(node, path=()):
    """Every path into ``node`` below its root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from locations(child, path + (key,))


def tree_mutated(rng: random.Random, manifest: dict) -> bytes:
    """The manifest with one to three nodes replaced, deleted or added."""
    manifest = copy.deepcopy(manifest)
    for _ in range(rng.randrange(1, 4)):
        *parents, key = rng.choice(list(locations(manifest)))
        parent = manifest
        for step in parents:
            parent = parent[step]
        value = copy.deepcopy(rng.choice(HOSTILE_VALUES))
        action = rng.random()
        if action < 0.2:
            del parent[key]
        elif action < 0.3 and isinstance(parent, dict):
            parent[rng.choice(KEYS)] = value
        else:
            parent[key] = value
        if not list(locations(manifest)):
            break
    return json.dumps(manifest).encode("utf-8")


def byte_mutated(rng: random.Random, data: bytes) -> bytes:
    """``data`` after one to three byte flips, insertions or deletions."""
    data = bytearray(data)
    for _ in range(rng.randrange(1, 4)):
        at = rng.randrange(len(data))
        change = rng.random()
        if change < 0.4:
            data[at] ^= 1 << rng.randrange(8)
        elif change < 0.7:
            data[at:at] = bytes([rng.randrange(256)])
        else:
            del data[at:at + rng.randrange(1, 4)]
    return bytes(data)


def test_torn_and_mutated_manifests(saved, tmp_path):
    manifest = json.loads(saved)
    seen = {}
    for index in range(150):
        rng = random.Random(f"manifests:{SEED}:{index}")
        kind = rng.choice(["torn", "bytes", "tree"])
        if kind == "torn":
            data = saved[:rng.randrange(len(saved))]
        elif kind == "bytes":
            data = byte_mutated(rng, saved)
        else:
            data = tree_mutated(rng, manifest)
        outcome = load(data, tmp_path / str(index), saved)
        if kind == "torn":
            assert outcome == Outcome.QUARANTINED
        if kind == "tree":
            assert outcome != Outcome.QUARANTINED
        seen.setdefault(kind, set()).add(outcome)
    assert seen["bytes"] >= {Outcome.QUARANTINED, Outcome.REFUSED}
    assert Outcome.REFUSED in seen["tree"]
