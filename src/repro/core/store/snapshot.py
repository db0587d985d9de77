"""Content fingerprints and disk persistence for the semantic store.

Two concerns live here because both are about *snapshotting* source and
store state:

* :func:`fingerprint_source` — a stable content hash of one data
  source's observable data (every connector implements
  ``content_fingerprint()``; see :mod:`repro.sources.base`).  The delta
  refresher compares fingerprints taken at materialization time against
  the current ones to decide *which* sources need re-extraction.

* :func:`save_store` / :func:`load_store` — warm-restart persistence.
  A saved store is one file, ``manifest.json``: materializations →
  source slices → fingerprints, the slice's entities and the
  materialization's error entries, each in the JSON form of
  :mod:`repro.core.instances.codec` (the form the wire carries), so
  value types, multi-valued attributes, value order and coercion errors
  survive the restart.  No triple is saved: the store derives them from
  the entities when asked, and ``store.export()`` is the RDF export path.
"""

from __future__ import annotations

import json
import logging
import os

from ...errors import S2SError
from ...ids import AttributePath
from ...sources.base import DataSource
from ..instances.codec import (entity_from_json, entity_to_json,
                               error_from_json, error_to_json, json_default,
                               json_field)

logger = logging.getLogger("repro.core.store")

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 2


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


def save_store(store, directory: str) -> str:
    """Persist ``store`` under ``directory``; returns the manifest path.

    The directory is created if missing.  Freshness is deliberately not
    persisted: a reloaded store is stamped fresh at load time, and the
    first refresh re-checks every fingerprint anyway."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "version": MANIFEST_VERSION,
        "generation": store.generation,
        "namespace": store.namespace.base,
        "materializations": [
            _materialization_to_dict(mat)
            for mat in store.materializations()],
    }
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        # no sort_keys: the order of an individual's values is data
        json.dump(manifest, handle, indent=1, default=json_default)
    return manifest_path


def _materialization_to_dict(mat) -> dict:
    return {
        "class": mat.class_name,
        "attributes": sorted(mat.attribute_ids),
        "errors": [error_to_json(entry) for entry in mat.errors],
        "slices": [
            {"source": slice_.source_id,
             "fingerprint": slice_.fingerprint,
             "stale": slice_.stale,
             "entities": [entity_to_json(entity)
                          for entity in slice_.entities]}
            for _sid, slice_ in sorted(mat.slices.items())],
    }


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------


def load_store(store, directory: str) -> int:
    """Warm-restart ``store`` from ``directory``.

    Replaces the store's current contents; returns the number of
    materializations loaded.  Reads the manifest only and ``adopt()``s
    the decoded materializations.  A manifest of another
    version, or one that is JSON but not a manifest, raises
    :class:`S2SError` and leaves the store as it was.

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
    except (ValueError, RecursionError) as exc:  # JSON, UTF-8, int limit
        corrupt_path = manifest_path + ".corrupt"
        os.replace(manifest_path, corrupt_path)
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
    version = manifest.get("version") if isinstance(manifest, dict) else None
    if version != MANIFEST_VERSION:
        raise S2SError(f"unsupported store manifest version {version!r}")

    from .store import Materialization, SourceSlice

    try:
        generation = json_field(manifest, "generation", int)
        materializations = [
            Materialization(
                class_name=json_field(mat_dict, "class", str),
                attribute_ids=frozenset(json_field(mat_dict, "attributes", list)),
                required=[AttributePath.parse(attribute)
                          for attribute in mat_dict["attributes"]],
                slices={
                    json_field(slice_dict, "source", str): SourceSlice(
                        slice_dict["source"],
                        [entity_from_json(entity)
                         for entity in json_field(slice_dict, "entities", list)],
                        json_field(slice_dict, "fingerprint", str, type(None)),
                        json_field(slice_dict, "stale", bool))
                    for slice_dict in json_field(mat_dict, "slices", list)},
                errors=[error_from_json(entry)
                        for entry in json_field(mat_dict, "errors", list)],
                materialized_at=store.clock.monotonic())
            for mat_dict in json_field(manifest, "materializations", list)]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise S2SError(f"malformed store manifest {manifest_path}: "
                       f"{exc!r}") from exc
    store.reset(generation=generation)
    for mat in materializations:
        store.adopt(mat)
    return len(materializations)
