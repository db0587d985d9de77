"""Simulated web substrate.

Unstructured sources: HTML pages behind URLs.  The paper fetches live
pages with WebL's ``GetURL``; offline we substitute an in-process
:class:`SimulatedWeb` — a URL → page registry with an optional latency
model — so the wrapper code path (fetch, text rendering, regex extraction)
is identical while staying deterministic (see DESIGN.md section 3).
"""

from ...htmlkit import HtmlDocument, parse_html
from .site import SimulatedWeb, WebPage
from .source import WebDataSource

__all__ = ["SimulatedWeb", "WebPage", "WebDataSource", "HtmlDocument",
           "parse_html"]
