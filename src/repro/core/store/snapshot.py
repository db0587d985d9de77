"""Content fingerprints and disk persistence for the semantic store.

Two concerns live here because both are about *snapshotting* source and
store state:

* :func:`fingerprint_source` — a stable content hash of one data
  source's observable data (every connector implements
  ``content_fingerprint()``; see :mod:`repro.sources.base`).  The delta
  refresher compares fingerprints taken at materialization time against
  the current ones to decide *which* sources need re-extraction.

* :func:`save_store` / :func:`load_store` — warm-restart persistence.
  A saved store is two files in one directory: ``snapshot.ttl`` (or
  ``.nt``), the full RDF graph including provenance triples, and
  ``manifest.json``, the structural index (materializations → source
  slices → entity identifiers, links, fingerprints, error entries) that
  the triples alone cannot carry.  Literal values round-trip through
  the graph (``python_to_literal`` / ``Literal.to_python``), so typed
  values (ints, floats, dates) survive the restart.
"""

from __future__ import annotations

import json
import logging
import os

from ...errors import S2SError
from ...ids import AttributePath
from ...ontology.model import Individual
from ...rdf.namespace import RDF
from ...rdf.ntriples import parse_ntriples, serialize_ntriples
from ...rdf.terms import Literal
from ...rdf.turtle import parse_turtle, serialize_turtle
from ...sources.base import DataSource
from ..instances.assembly import AssembledEntity
from ..instances.errors import ErrorEntry

logger = logging.getLogger("repro.core.store")

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

#: snapshot format → (file name, serializer, parser)
SNAPSHOT_FORMATS = {
    "turtle": ("snapshot.ttl", serialize_turtle, parse_turtle),
    "ntriples": ("snapshot.nt", serialize_ntriples, parse_ntriples),
}


def fingerprint_source(source: DataSource) -> str | None:
    """The source's current content fingerprint, or None.

    ``None`` means the content is unobservable right now (connector does
    not implement fingerprinting, or reading it failed) — callers must
    treat that as *changed*, never as *unchanged*."""
    try:
        return source.content_fingerprint()
    except S2SError:
        return None


def fingerprint_sources(sources, source_ids) -> dict[str, str | None]:
    """Current fingerprint of each named source of a repository (None
    for one that is gone or unobservable).

    Every store filler calls this *before* it reads the sources and
    stores the result with what it read: a write racing the extraction
    then leaves a fingerprint older than the stored rows, which the next
    refresh sees as changed.  Taken after the read, the old rows would
    sit under the new fingerprint and be served as fresh forever."""
    fingerprints: dict[str, str | None] = {}
    for source_id in source_ids:
        try:
            source = sources.get(source_id)
        except S2SError:
            fingerprints[source_id] = None
        else:
            fingerprints[source_id] = fingerprint_source(source)
    return fingerprints


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------


def save_store(store, directory: str, *, format: str = "turtle") -> str:
    """Persist ``store`` under ``directory``; returns the manifest path.

    The directory is created if missing.  Freshness is deliberately not
    persisted: a reloaded store is stamped fresh at load time, and the
    first refresh re-checks every fingerprint anyway."""
    if format not in SNAPSHOT_FORMATS:
        raise S2SError(f"unknown snapshot format {format!r}; expected one "
                       f"of {sorted(SNAPSHOT_FORMATS)}")
    snapshot_name, serializer, _parser = SNAPSHOT_FORMATS[format]
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, snapshot_name), "w",
              encoding="utf-8") as handle:
        handle.write(serializer(store.graph))
    manifest = {
        "version": MANIFEST_VERSION,
        "format": format,
        "generation": store.generation,
        "namespace": store.namespace.base,
        "materializations": [
            _materialization_to_dict(mat)
            for mat in store.materializations()],
    }
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
    return manifest_path


def _materialization_to_dict(mat) -> dict:
    return {
        "class": mat.class_name,
        "attributes": sorted(mat.attribute_ids),
        "errors": [{"phase": entry.phase, "message": entry.message,
                    "source_id": entry.source_id,
                    "attribute_id": entry.attribute_id}
                   for entry in mat.errors],
        "slices": [
            {"source": slice_.source_id,
             "fingerprint": slice_.fingerprint,
             "stale": slice_.stale,
             "entities": [_entity_to_dict(entity)
                          for entity in slice_.entities]}
            for _sid, slice_ in sorted(mat.slices.items())],
    }


def _entity_to_dict(entity: AssembledEntity) -> dict:
    individuals = entity.all_individuals()
    return {
        "primary": {"id": entity.primary.identifier,
                    "class": entity.primary.class_name},
        "satellites": [{"id": satellite.identifier,
                        "class": satellite.class_name}
                       for satellite in entity.satellites],
        "links": [{"from": individual.identifier, "property": name,
                   "to": target.identifier}
                  for individual in individuals
                  for name, targets in sorted(individual.links.items())
                  for target in targets],
        "record_index": entity.record_index,
    }


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------


def load_store(store, directory: str) -> int:
    """Warm-restart ``store`` from ``directory``.

    Replaces the store's current contents; returns the number of
    materializations loaded.  Entity values are rebuilt from the
    snapshot graph's literals, entity structure (satellites, links,
    record indexes) from the manifest.

    A manifest that exists but does not parse (torn write from a crashed
    saver) is quarantined under ``manifest.json.corrupt`` and the load
    degrades to a cold start (returns 0) instead of raising — recovery
    paths must survive damaged persistence.  A *missing* manifest is
    still an error: the caller pointed at the wrong directory."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except OSError as exc:
        raise S2SError(f"cannot load store manifest {manifest_path}: "
                       f"{exc}") from exc
    except json.JSONDecodeError as exc:
        corrupt_path = manifest_path + ".corrupt"
        if os.path.exists(corrupt_path):
            os.unlink(corrupt_path)
        os.rename(manifest_path, corrupt_path)
        logger.warning(
            "corrupt store manifest %s (%s): quarantined to %s, "
            "starting cold", manifest_path, exc,
            os.path.basename(corrupt_path))
        if store.metrics is not None:
            store.metrics.counter(
                "ingest_journal_corrupt_total",
                "Corrupt persistence files quarantined during recovery"
            ).inc(kind="manifest")
        store.reset()
        return 0
    if manifest.get("version") != MANIFEST_VERSION:
        raise S2SError(f"unsupported store manifest version "
                       f"{manifest.get('version')!r}")
    format = manifest.get("format", "turtle")
    if format not in SNAPSHOT_FORMATS:
        raise S2SError(f"unknown snapshot format {format!r} in manifest")
    snapshot_name, _serializer, parser = SNAPSHOT_FORMATS[format]
    snapshot_path = os.path.join(directory, snapshot_name)
    try:
        with open(snapshot_path, encoding="utf-8") as handle:
            snapshot = parser(handle.read())
    except OSError as exc:
        raise S2SError(f"cannot load store snapshot {snapshot_path}: "
                       f"{exc}") from exc

    from .store import Materialization, SourceSlice

    store.reset(generation=int(manifest.get("generation", 0)))
    loaded = 0
    for mat_dict in manifest.get("materializations", []):
        slices = [
            SourceSlice(
                slice_dict["source"],
                [_entity_from_dict(store, snapshot, entity_dict,
                                   slice_dict["source"])
                 for entity_dict in slice_dict.get("entities", [])],
                slice_dict.get("fingerprint"),
                bool(slice_dict.get("stale", False)))
            for slice_dict in mat_dict.get("slices", [])]
        mat = Materialization(
            class_name=mat_dict["class"],
            attribute_ids=frozenset(mat_dict["attributes"]),
            required=[AttributePath.parse(attribute)
                      for attribute in mat_dict["attributes"]],
            slices={slice_.source_id: slice_ for slice_ in slices},
            materialized_at=store.clock.monotonic(),
            generation=store.generation)
        mat.errors = [ErrorEntry(entry["phase"], entry["message"],
                                 entry.get("source_id"),
                                 entry.get("attribute_id"))
                      for entry in mat_dict.get("errors", [])]
        store.adopt(mat)
        loaded += 1
    return loaded


def _entity_from_dict(store, snapshot, entity_dict: dict,
                      source_id: str) -> AssembledEntity:
    individuals: dict[str, Individual] = {}

    def rebuild(spec: dict) -> Individual:
        individual = Individual(spec["id"], spec["class"],
                                _values_from_graph(store, snapshot,
                                                   spec["id"]))
        individuals[spec["id"]] = individual
        return individual

    primary = rebuild(entity_dict["primary"])
    satellites = [rebuild(spec)
                  for spec in entity_dict.get("satellites", [])]
    for link in entity_dict.get("links", []):
        origin = individuals.get(link["from"])
        target = individuals.get(link["to"])
        if origin is None or target is None:
            raise S2SError(
                f"store manifest link references unknown individual: "
                f"{link['from']} -[{link['property']}]-> {link['to']}")
        origin.link(link["property"], target)
    return AssembledEntity(primary, satellites, source_id,
                           int(entity_dict.get("record_index", 0)))


def _values_from_graph(store, snapshot, identifier: str) -> dict:
    """Rebuild one individual's value map from the snapshot graph."""
    subject = store.namespace[identifier]
    values: dict[str, object] = {}
    for triple in snapshot.triples(subject, None, None):
        if triple.predicate == RDF.type:
            continue
        if not triple.predicate.value.startswith(store.namespace.base):
            continue  # provenance vocabulary
        if isinstance(triple.object, Literal):
            values[triple.predicate.local_name] = triple.object.to_python()
    return values
