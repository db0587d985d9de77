"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import os
import threading
import time
from multiprocessing import resource_tracker

import pytest

from repro.ontology import OntologySchema
from repro.ontology.builders import watch_domain_ontology
from repro.sources.relational import Database
from repro.sources.web import SimulatedWeb
from repro.sources.xmlstore import XmlDocumentStore
from repro.workloads import B2BScenario, ConflictProfile

pytest_plugins = ["pytester"]

#: how long a module's own threads get to finish after its last test
LEAK_GRACE_SECONDS = 2.0


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "leaks(reason): the module may leave threads or open "
        "descriptors behind; the reason says why (none are marked)")


def open_descriptors() -> int | None:
    """This process's open file descriptors, where ``/proc`` lists them,
    less the pipe to multiprocessing's resource tracker: the first spawn
    pool starts that tracker, and it stays for the life of the process."""
    try:
        names = set(os.listdir("/proc/self/fd"))
    except OSError:
        return None
    tracker = getattr(resource_tracker._resource_tracker, "_fd", None)
    return len(names - {str(tracker)})


@pytest.fixture(scope="module", autouse=True)
def leak_check(request):
    """Fail the module that leaves a thread running, or more file
    descriptors open, than it found: whatever a test opens, it closes.
    New threads get a short grace to finish, and garbage is collected
    before an extra descriptor counts.  The only allowance is a module
    marked ``@pytest.mark.leaks("reason")``."""
    before = {thread.ident for thread in threading.enumerate()}
    descriptors = open_descriptors()
    yield
    if request.node.get_closest_marker("leaks") is not None:
        return
    deadline = time.monotonic() + LEAK_GRACE_SECONDS
    started = [thread for thread in threading.enumerate()
               if thread.ident not in before]
    for thread in started:
        thread.join(max(0.0, deadline - time.monotonic()))
    running = sorted(thread.name for thread in started if thread.is_alive())
    grown = 0
    if descriptors is not None and open_descriptors() > descriptors:
        gc.collect()  # a file in a reference cycle closes when collected
        grown = open_descriptors() - descriptors
    leaked = []
    if running:
        leaked.append(f"{len(running)} thread(s) still running: {running}")
    if grown > 0:
        leaked.append(f"{grown} more open file descriptor(s)")
    if leaked:
        pytest.fail(f"{request.node.nodeid} leaked " + "; ".join(leaked),
                    pytrace=False)


@pytest.fixture
def ontology():
    """The paper's watch-domain ontology (Figure 2)."""
    return watch_domain_ontology()


@pytest.fixture
def schema(ontology):
    return OntologySchema(ontology)


@pytest.fixture
def watch_db():
    """A small watch database matching the ontology's concepts."""
    db = Database("watchdb")
    db.executescript("""
    CREATE TABLE watches (id INTEGER, brand TEXT, model TEXT,
                          casing TEXT, movement TEXT, wr INTEGER,
                          price_cents INTEGER, provider TEXT,
                          country TEXT);
    INSERT INTO watches (id, brand, model, casing, movement, wr,
                         price_cents, provider, country) VALUES
      (1, 'Seiko', 'SKX007', 'stainless-steel', 'automatic', 200,
       19900, 'Acme', 'PT'),
      (2, 'Casio', 'F91W', 'resin', 'quartz', 30, 1550, 'WatchCo', 'DE'),
      (3, 'Seiko', 'SNK809', 'stainless-steel', 'automatic', 30,
       8900, 'Acme', 'PT');
    """)
    return db


@pytest.fixture
def watch_page_web():
    """A simulated web hosting the paper's watch page."""
    web = SimulatedWeb()
    web.publish("http://shop.example/watch81", """
<html><head><title>Watch 81</title></head><body>
<p> <b>Seiko Men's Automatic Dive Watch</b> </p>
<span id="model">SRPD51</span>
<span id="case">stainless-steel</span>
<span class="price">$250.00</span>
<div id="provider">DiveShop</div>
</body></html>
""")
    return web


@pytest.fixture
def watch_xml_store():
    store = XmlDocumentStore()
    store.put("catalog.xml", """
<catalog>
  <watch><brand>Orient</brand><model>Bambino</model>
    <case>stainless-steel</case><price>180.0</price>
    <provider>Orient Star</provider></watch>
  <watch><brand>Casio</brand><model>AE1200</model>
    <case>resin</case><price>45.0</price>
    <provider>WatchCo</provider></watch>
</catalog>
""")
    return store


@pytest.fixture
def scenario():
    """A standard 4-source, 20-product B2B scenario with full conflicts."""
    return B2BScenario(n_sources=4, n_products=20)


@pytest.fixture
def clean_scenario():
    """A scenario with no schematic/semantic conflicts."""
    return B2BScenario(
        n_sources=4, n_products=20,
        conflicts=ConflictProfile(schematic=False, semantic=False))


@pytest.fixture
def middleware(scenario):
    return scenario.build_middleware()
