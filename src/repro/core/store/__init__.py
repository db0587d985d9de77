"""The materialized semantic store subsystem.

Materializes the Instance Generator's OWL instances ahead of query
time, serves repeat queries from the materialization, and refreshes
incrementally by re-extracting only the sources whose content
fingerprints changed.  See docs/store.md.
"""

from .delta import DeltaPlan, DeltaRefresher, RefreshResult
from .refresh import StoreRefresher
from .snapshot import (fingerprint_source, fingerprint_sources, load_store,
                       save_store)
from .store import (Materialization, SemanticStore, SliceWrite, SourceSlice,
                    StoreServing)
from .view import STORE, StoreGraph

__all__ = [
    "STORE",
    "DeltaPlan",
    "DeltaRefresher",
    "Materialization",
    "RefreshResult",
    "SemanticStore",
    "SliceWrite",
    "SourceSlice",
    "StoreGraph",
    "StoreRefresher",
    "StoreServing",
    "fingerprint_source",
    "fingerprint_sources",
    "load_store",
    "save_store",
]
