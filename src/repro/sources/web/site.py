"""The simulated web: a URL → page registry with fetch semantics.

Substitutes the live HTTP fetches of the paper's WebL rules (DESIGN.md
section 3).  Fetch behaviour that matters to the middleware is modelled:

* unknown URLs raise :class:`~repro.errors.PageNotFoundError` (the 404
  path exercised by the Instance Generator's error channel);
* per-fetch latency can be simulated (deterministically) so end-to-end
  benchmarks can show where wall time goes;
* pages can be *mutated* after registration, modelling the paper's remark
  that "data sources do not normally change their structures (except
  perhaps Web pages)" — the drift experiment E9 rewrites pages through
  :meth:`SimulatedWeb.mutate`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from ...errors import PageNotFoundError, WebError


@dataclass
class WebPage:
    """One registered page."""

    url: str
    html: str
    content_type: str = "text/html"
    fetch_count: int = field(default=0)


class SimulatedWeb:
    """An in-process 'internet' for the wrappers to crawl.

    Fetching is thread-safe: the middleware's parallel extraction mode
    fetches different sources' pages concurrently."""

    def __init__(self, *, latency_seconds: float = 0.0) -> None:
        self._pages: dict[str, WebPage] = {}
        self.latency_seconds = latency_seconds
        self.total_fetches = 0
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        """Picklable for subprocess ingest workers (lock re-created on
        the other side).  The child gets a snapshot copy of the web:
        its fetch counters diverge from the parent's, which is why the
        coordinator commits store writes, not the workers."""
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @staticmethod
    def _normalize(url: str) -> str:
        if "://" not in url:
            raise WebError(f"URL must be absolute (scheme://host/...): {url!r}")
        return url.rstrip("/") if url.count("/") > 2 else url

    # -- publishing -------------------------------------------------------

    def publish(self, url: str, html: str,
                content_type: str = "text/html") -> WebPage:
        """Register (or replace) the page served at ``url``."""
        key = self._normalize(url)
        page = WebPage(key, html, content_type)
        self._pages[key] = page
        return page

    def unpublish(self, url: str) -> None:
        """Remove the page at ``url`` (simulates a 404)."""
        if self._pages.pop(self._normalize(url), None) is None:
            raise PageNotFoundError(url)

    def mutate(self, url: str, transform: Callable[[str], str]) -> None:
        """Rewrite a page in place (schema-drift injection)."""
        page = self._pages.get(self._normalize(url))
        if page is None:
            raise PageNotFoundError(url)
        page.html = transform(page.html)

    # -- fetching ---------------------------------------------------------

    def fetch(self, url: str) -> str:
        """GET the page body; the WebL ``GetURL`` builtin lands here."""
        with self._lock:
            page = self._pages.get(self._normalize(url))
            if page is None:
                raise PageNotFoundError(url)
            page.fetch_count += 1
            self.total_fetches += 1
            html = page.html
        if self.latency_seconds > 0:
            time.sleep(self.latency_seconds)
        return html

    def peek(self, url: str) -> str | None:
        """The page body without counting a fetch or simulating latency.

        The semantic store's change detection hashes page content; a
        fingerprint probe must not perturb fetch counters (experiments
        assert on them) nor pay simulated network latency.  Returns
        None for unregistered URLs."""
        with self._lock:
            page = self._pages.get(self._normalize(url))
            return None if page is None else page.html

    def has(self, url: str) -> bool:
        """Whether a page is registered at ``url``."""
        return self._normalize(url) in self._pages

    def urls(self) -> list[str]:
        """All registered URLs, sorted."""
        return sorted(self._pages)

    def __len__(self) -> int:
        return len(self._pages)

    def __repr__(self) -> str:
        return f"SimulatedWeb(pages={len(self._pages)})"
