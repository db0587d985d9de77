"""Store integration: disk round-trips and store-vs-live equivalence.

The store's contract is behavioural: a query answered from the
materialized store must be indistinguishable from one answered by live
extraction — across merge keys, WHERE conditions, incremental refreshes
after source mutations, and a full save/load cycle into a brand-new
middleware process.

Individual value dicts are rebuilt from graph triples on a warm load,
so their insertion order may differ from the live pipeline's; every
comparison here canonicalizes with sorted items, never dict order.
"""

from __future__ import annotations

import json
import os
from decimal import Decimal

import pytest

from repro.core.instances.assembly import AssembledEntity
from repro.core.store import SliceWrite
from repro.errors import CodecError
from repro.ontology.model import Individual
from repro.workloads import B2BScenario


def _freeze(value):
    return tuple(value) if isinstance(value, list) else value


def canon(entities):
    return sorted(
        (entity.primary.class_name, entity.source_id, entity.record_index,
         tuple(sorted((name, _freeze(value))
                      for name, value in entity.primary.values.items())),
         tuple(sorted(
             (satellite.class_name,
              tuple(sorted((name, _freeze(value))
                           for name, value in satellite.values.items())))
             for satellite in entity.satellites)))
        for entity in entities)


def mutate(scenario, org):
    """Touch one organization's substrate (changing its fingerprint).

    The database mutation changes extracted values; the others only
    change the raw content (comments/unknown nodes), so re-extraction
    must reproduce the same records — both directions of the
    change-detection contract get exercised.
    """
    if org.source_type == "database":
        org.database.execute(
            "UPDATE products SET provider_country = 'Atlantis'")
    elif org.source_type == "xml":
        document = org.xml_store.export("catalog.xml")
        org.xml_store.put("catalog.xml", document.replace(
            "</catalog>", "<touched>1</touched></catalog>"))
    elif org.source_type == "webpage":
        scenario.web.mutate(org.url, lambda html: html + "<!-- touched -->")
    else:
        org.text_store.append("inventory.txt", "\n# touched")


class TestDiskRoundTrip:
    def test_persisted_store_answers_identically_after_reload(self,
                                                              tmp_path):
        """The acceptance criterion: save, load into a *fresh*
        middleware, and the store-served answer is unchanged."""
        scenario = B2BScenario(n_sources=4, n_products=12, seed=7)
        s2s = scenario.build_middleware(store=True)
        live = s2s.query("SELECT product")
        assert s2s.query("SELECT product").store_hit
        manifest = s2s.store.save(str(tmp_path))
        assert os.path.exists(manifest)

        reborn = scenario.build_middleware(store=True)
        loaded = reborn.store.load(str(tmp_path))
        assert loaded == 1
        served = reborn.query("SELECT product")
        assert served.store_hit
        assert canon(served.entities) == canon(live.entities)
        assert not served.errors.entries

    def test_reloaded_graph_answers_sparql(self, tmp_path):
        scenario = B2BScenario(n_sources=2, n_products=6, seed=7)
        s2s = scenario.build_middleware(store=True)
        s2s.query("SELECT product")
        s2s.store.save(str(tmp_path))

        reborn = scenario.build_middleware(store=True)
        reborn.store.load(str(tmp_path))
        assert len(reborn.store.graph) == len(s2s.store.graph)
        assert reborn.sparql(
            "PREFIX store: <http://example.org/s2s/store#> "
            "ASK { ?s store:source ?src }") is True

    def test_manifest_is_versioned_json(self, tmp_path):
        scenario = B2BScenario(n_sources=2, n_products=4, seed=7)
        s2s = scenario.build_middleware(store=True)
        s2s.query("SELECT product")
        manifest = s2s.store.save(str(tmp_path))
        with open(manifest, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["version"] == 3
        assert "format" not in payload
        assert payload["materializations"]
        assert not os.path.exists(os.path.join(str(tmp_path), "snapshot.nt"))

    def test_roundtrip_writes_one_file(self, tmp_path):
        """There is one snapshot format: the manifest alone."""
        scenario = B2BScenario(n_sources=2, n_products=6, seed=11)
        s2s = scenario.build_middleware(store=True)
        live = s2s.query("SELECT product")
        with pytest.raises(TypeError):
            s2s.store.save(str(tmp_path), format="turtle")
        s2s.store.save(str(tmp_path))
        assert os.listdir(tmp_path) == ["manifest.json"]
        reborn = scenario.build_middleware(store=True)
        reborn.store.load(str(tmp_path))
        served = reborn.query("SELECT product")
        assert served.store_hit
        assert canon(served.entities) == canon(live.entities)

    def test_a_failed_save_keeps_the_previous_snapshot(self, tmp_path):
        """A value with no JSON form fails the save before the manifest
        on disk is touched: the old snapshot still loads in full."""
        scenario = B2BScenario(n_sources=2, n_products=6, seed=11)
        s2s = scenario.build_middleware(store=True)
        live = s2s.query("SELECT product")
        s2s.query("SELECT provider")
        s2s.store.save(str(tmp_path))
        mat = s2s.store.lookup(live.plan)
        entity = mat.slices[live.entities[0].source_id].entities[0]
        priced = Individual(entity.primary.identifier, "watch",
                            {"price": Decimal("19.99")})
        s2s.store.commit(mat.key, [SliceWrite(
            entity.source_id,
            [AssembledEntity(priced, [], entity.source_id, 0)])], None)
        with pytest.raises(CodecError):
            s2s.store.save(str(tmp_path))
        assert os.listdir(tmp_path) == ["manifest.json"]
        reborn = scenario.build_middleware(store=True)
        assert reborn.store.load(str(tmp_path)) == 2
        served = reborn.query("SELECT product")
        assert served.store_hit
        assert canon(served.entities) == canon(live.entities)
        assert reborn.query("SELECT provider").store_hit

    def test_a_lone_surrogate_fails_the_save_typed(self, tmp_path):
        """A string with no UTF-8 form fails the save as a CodecError,
        with the previous snapshot left in place."""
        s2s = B2BScenario(n_sources=2, n_products=6,
                          seed=11).build_middleware(store=True)
        live = s2s.query("SELECT product")
        s2s.store.save(str(tmp_path))
        before = (tmp_path / "manifest.json").read_bytes()
        mat = s2s.store.lookup(live.plan)
        entity = mat.slices[live.entities[0].source_id].entities[0]
        named = Individual(entity.primary.identifier, "watch",
                           {"brand": "\ud800"})
        s2s.store.commit(mat.key, [SliceWrite(
            entity.source_id,
            [AssembledEntity(named, [], entity.source_id, 0)])], None)
        with pytest.raises(CodecError, match="lone surrogate"):
            s2s.store.save(str(tmp_path))
        assert os.listdir(tmp_path) == ["manifest.json"]
        assert (tmp_path / "manifest.json").read_bytes() == before

    def test_reloaded_store_still_delta_refreshes(self, tmp_path):
        """Fingerprints survive the round-trip: a reloaded store only
        re-extracts sources that changed since the snapshot."""
        scenario = B2BScenario(n_sources=4, n_products=12, seed=7)
        s2s = scenario.build_middleware(store=True)
        s2s.query("SELECT product")
        s2s.store.save(str(tmp_path))

        org = next(o for o in scenario.organizations
                   if o.source_id == "database_0")
        mutate(scenario, org)

        reborn = scenario.build_middleware(store=True)
        reborn.store.load(str(tmp_path))
        result, = reborn.refresh_store()
        assert result.extracted_sources == ["database_0"]
        assert sorted(result.unchanged) == ["textfile_3", "webpage_2",
                                            "xml_1"]
        served = reborn.query("SELECT product")
        assert served.store_hit
        assert canon(served.entities) == canon(
            scenario.build_middleware().query("SELECT product").entities)


class TestStoreLiveEquivalence:
    """Property: over seeded random worlds, store-served == live."""

    @pytest.mark.parametrize("seed", [1, 5, 11, 23])
    def test_store_serving_matches_live_extraction(self, seed):
        scenario = B2BScenario(n_sources=4, n_products=10, seed=seed)
        live = scenario.build_middleware()
        stored = scenario.build_middleware(store=True)
        brand = live.query("SELECT product").entities[0].value("brand")
        cases = [
            ("SELECT product", None),
            ("SELECT product", ["brand", "model"]),
            (f'SELECT product WHERE brand = "{brand}"', None),
            (f'SELECT product WHERE brand = "{brand}"', ["brand", "model"]),
        ]
        for query, merge_key in cases:
            stored.query(query, merge_key=merge_key)  # warm the store
        for query, merge_key in cases:
            expected = live.query(query, merge_key=merge_key)
            served = stored.query(query, merge_key=merge_key)
            assert served.store_hit, (seed, query, merge_key)
            assert canon(served.entities) == canon(expected.entities), (
                seed, query, merge_key)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_equivalence_survives_mutation_and_refresh(self, seed):
        scenario = B2BScenario(n_sources=4, n_products=10, seed=seed)
        stored = scenario.build_middleware(store=True)
        stored.materialize("SELECT product")
        for org in scenario.organizations:
            mutate(scenario, org)
        result, = stored.refresh_store()
        assert sorted(result.refreshed) == sorted(
            org.source_id for org in scenario.organizations)

        served = stored.query("SELECT product")
        assert served.store_hit
        fresh_live = scenario.build_middleware().query("SELECT product")
        assert canon(served.entities) == canon(fresh_live.entities)

    def test_batch_serving_matches_live_batches(self):
        scenario = B2BScenario(n_sources=4, n_products=10, seed=9)
        live = scenario.build_middleware()
        stored = scenario.build_middleware(store=True)
        queries = ["SELECT product", "SELECT watch", "SELECT product"]
        stored.query_many(queries)
        expected = live.query_many(queries)
        served = stored.query_many(queries)
        assert all(result.store_hit for result in served)
        for before, after in zip(expected, served):
            assert canon(after.entities) == canon(before.entities)
