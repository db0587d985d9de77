"""The Extractor Manager (paper section 2.4).

"This component handles data sources for retrieving the raw data to
accomplish query requirements."  Its three tasks map onto the modules
here:

* *Obtain Extraction Schema* → :mod:`repro.core.extractor.schema`;
* *Obtain Data Source Definition* → resolved through the data source
  repository inside :mod:`repro.core.extractor.manager`;
* *Data Extraction* → the mediator
  (:class:`~repro.core.extractor.manager.ExtractorManager`) delegating to
  per-source-type wrappers (:mod:`repro.core.extractor.extractors`), with
  the raw output modelled in :mod:`repro.core.extractor.records`.
"""

from .extractors import (DatabaseExtractor, Extractor, ExtractorRegistry,
                         TextExtractor, WebExtractor, XmlExtractor)
from .manager import ExtractionOutcome, ExtractorManager
from .records import RawFragment, SourceRecordSet
from .schema import ExtractionSchema

__all__ = [
    "Extractor",
    "ExtractorRegistry",
    "WebExtractor",
    "DatabaseExtractor",
    "XmlExtractor",
    "TextExtractor",
    "ExtractionSchema",
    "ExtractorManager",
    "ExtractionOutcome",
    "RawFragment",
    "SourceRecordSet",
]
