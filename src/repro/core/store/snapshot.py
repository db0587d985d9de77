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
  source slices → fingerprints, each slice's entities as shape
  templates plus value rows and the materialization's error entries,
  in the JSON form of :mod:`repro.core.instances.codec` (the form the
  wire carries), so value types, multi-valued attributes, value order
  and coercion errors survive the restart.  No triple is saved: the
  store derives them from the entities when asked, and
  ``store.export()`` is the RDF export path.
"""

from __future__ import annotations

import json
import logging
import os

from ...errors import S2SError
from ...ids import AttributePath
from ...sources.base import DataSource
from ..instances.codec import (compact_json, entities_from_wire,
                               entities_to_wire, error_from_json,
                               error_to_json, has_lone_surrogate, json_field,
                               utf8)

logger = logging.getLogger("repro.core.store")

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 3


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

    The directory is created if missing.  The whole text is built before
    anything is written, then written beside the manifest and renamed
    over it: a save that fails (a value with no JSON form or a string
    with no UTF-8 form, both :class:`~repro.errors.CodecError`; a full
    disk) leaves the previous snapshot as it was.  Freshness is deliberately
    not persisted: a reloaded store is stamped fresh at load time, and
    the first refresh re-checks every fingerprint anyway."""
    os.makedirs(directory, exist_ok=True)
    data = utf8(compact_json({
        "version": MANIFEST_VERSION,
        "generation": store.generation,
        "namespace": store.namespace.base,
        "materializations": [
            _materialization_to_dict(mat)
            for mat in store.materializations()],
    }))
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    written_path = manifest_path + ".tmp"
    with open(written_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(written_path, manifest_path)
    return manifest_path


def _materialization_to_dict(mat) -> dict:
    slices = []
    for _sid, slice_ in sorted(mat.slices.items()):
        shapes, rows = entities_to_wire(slice_.entities)
        slices.append({"source": slice_.source_id,
                       "fingerprint": slice_.fingerprint,
                       "stale": slice_.stale,
                       "shapes": shapes, "entities": rows})
    return {
        "class": mat.class_name,
        "attributes": sorted(mat.attribute_ids),
        "errors": [error_to_json(entry) for entry in mat.errors],
        "slices": slices,
    }


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------


def load_store(store, directory: str) -> int:
    """Warm-restart ``store`` from ``directory``.

    Replaces the store's current contents; returns the number of
    materializations loaded.  Reads the manifest only and ``adopt()``s
    the decoded materializations.  A manifest of another version, one
    that is JSON but not a manifest, or one holding what the store could
    not export (:func:`_check_exportable`, or a string escaping a lone
    surrogate) raises :class:`S2SError` and leaves the store as it was.

    A manifest that exists but does not parse (torn write from a crashed
    saver) is quarantined under ``manifest.json.corrupt`` and the load
    degrades to a cold start (returns 0) instead of raising — recovery
    paths must survive damaged persistence.  A *missing* manifest is
    still an error: the caller pointed at the wrong directory."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            text = handle.read()
        manifest = json.loads(text)
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
    if has_lone_surrogate(text, manifest):
        raise S2SError(f"malformed store manifest {manifest_path}: a string "
                       f"escapes a lone surrogate, which no save could write")

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
                        _slice_entities(store.namespace, slice_dict),
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


def _slice_entities(namespace, slice_dict: dict) -> list:
    """A manifest slice's entities, decoded and checked exportable."""
    shapes = json_field(slice_dict, "shapes", list)
    rows = json_field(slice_dict, "entities", list)
    entities = entities_from_wire(shapes, rows)
    _check_exportable(namespace, shapes, rows)
    return entities


def _check_exportable(namespace, shapes: list, rows: list) -> None:
    """Refuse a decoded slice the store could hold but not export: a
    class, attribute, link or identifier that is no IRI in the store's
    ``namespace`` (each name once per template, each identifier once per
    individual), or a ``null`` value, alone or in a list.  The row
    decoder lets both through: the wire carries ``null``."""
    for template in shapes:
        for class_name, attributes, links in template:
            for name in (class_name, *attributes, *links):
                namespace[name]
    for row in rows:
        for cell in row[4:]:
            namespace[cell[0]]
            if None in cell or list in map(type, cell) and any(
                    type(value) is list and None in value for value in cell):
                raise S2SError(f"individual {cell[0]!r} holds a null value")
