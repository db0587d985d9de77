"""The consolidated config surface, and the spellings 2.0, 2.1, 2.2 and
2.17 removed."""

from __future__ import annotations

import importlib
import pathlib
import pkgutil
import re
import warnings

import pytest

import repro
import repro.config


class TestCanonicalSurface:
    def test_repro_config_exports_every_knob_object(self):
        from repro.config import (ConcurrencyConfig, RefreshPolicy,
                                  ResilienceConfig, ServerConfig)
        assert ResilienceConfig().deadline_seconds is None or \
            ResilienceConfig().deadline_seconds > 0
        assert ConcurrencyConfig().max_workers is None or \
            ConcurrencyConfig().max_workers >= 1
        policy = RefreshPolicy()
        assert policy.ttl_seconds is None or policy.ttl_seconds > 0
        assert ServerConfig().max_inflight >= 1

    def test_top_level_reexports_are_the_same_objects(self):
        assert repro.ResilienceConfig is repro.config.ResilienceConfig
        assert repro.ConcurrencyConfig is repro.config.ConcurrencyConfig
        assert repro.RefreshPolicy is repro.config.RefreshPolicy
        assert repro.ServerConfig is repro.config.ServerConfig

    def test_defining_modules_are_the_same_objects(self):
        from repro.core.resilience.config import (ConcurrencyConfig,
                                                  ResilienceConfig)
        from repro.core.store.refresh import RefreshPolicy
        from repro.server.config import ServerConfig
        assert repro.config.ResilienceConfig is ResilienceConfig
        assert repro.config.ConcurrencyConfig is ConcurrencyConfig
        assert repro.config.RefreshPolicy is RefreshPolicy
        assert repro.config.ServerConfig is ServerConfig

    def test_version_matches_pyproject(self):
        # A regex, not tomllib: requires-python is >=3.10.
        pyproject = pathlib.Path(__file__).parents[2] / "pyproject.toml"
        declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(),
                             re.MULTILINE).group(1)
        assert repro.__version__ == declared

    def test_importing_repro_emits_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            importlib.reload(repro.config)


def _removed_spellings():
    """(id, trigger, expected exception) for every spelling 2.0 deleted,
    plus the four poll knobs 2.1 made event-driven, the refresher poll
    knob 2.2 found no caller for and the fragment cache 2.17 deleted."""
    from repro.cli import main
    from repro.clock import SystemClock
    from repro.config import (ConcurrencyConfig, FleetConfig,
                              ResilienceConfig)
    from repro.core.cluster import QueryShardCoordinator
    from repro.core.ingest import ShardCoordinator
    from repro.core.extractor.manager import ExtractorManager
    from repro.core.mapping.datasources import DataSourceRepository
    from repro.core.mapping.repository import AttributeRepository
    from repro.core.store.refresh import StoreRefresher
    from repro.ontology.builders import watch_domain_ontology

    cases = []
    for kwarg in ("retries", "retry_delay", "parallel", "max_workers"):
        cases.append((f"S2SMiddleware({kwarg}=)", lambda k=kwarg:
                      repro.S2SMiddleware(watch_domain_ontology(), **{k: 1}),
                      TypeError))
        cases.append((f"ExtractorManager({kwarg}=)", lambda k=kwarg:
                      ExtractorManager(AttributeRepository(),
                                       DataSourceRepository(), **{k: 1}),
                      TypeError))
    for kwarg in ("parallel", "max_workers"):
        cases.append((f"ResilienceConfig({kwarg}=)", lambda k=kwarg:
                      ResilienceConfig(**{k: 1}), TypeError))
    for kwarg in ("workers", "pool"):
        cases.append((f"ConcurrencyConfig({kwarg}=)", lambda k=kwarg:
                      ConcurrencyConfig(mode="sharded", **{k: 2}),
                      TypeError))
    for kwarg in ("n_workers", "pool", "heartbeat_timeout", "poll_seconds",
                  "real_poll_seconds", "max_worker_restarts"):
        cases.append((f"QueryShardCoordinator({kwarg}=)", lambda k=kwarg:
                      QueryShardCoordinator(clock=SystemClock(), **{k: 2}),
                      TypeError))
    for kwarg in ("poll_seconds", "real_poll_seconds"):
        cases.append((f"FleetConfig({kwarg}=)", lambda k=kwarg:
                      FleetConfig(**{k: 0.05}), TypeError))
        cases.append((f"ShardCoordinator({kwarg}=)", lambda k=kwarg:
                      ShardCoordinator(None, None, None, "journal",
                                       **{k: 0.05}),
                      TypeError))
    cases.append(("S2SMiddleware(cache_extractions=)", lambda:
                  repro.S2SMiddleware(watch_domain_ontology(),
                                      cache_extractions=True), TypeError))
    cases.append(("ExtractorManager(cache=)", lambda:
                  ExtractorManager(AttributeRepository(),
                                   DataSourceRepository(), cache=None),
                  TypeError))
    cases.append(("repro.core.extractor.cache", lambda:
                  importlib.import_module("repro.core.extractor.cache"),
                  ImportError))
    cases.append(("StoreRefresher(poll_seconds=)", lambda:
                  StoreRefresher(list, poll_seconds=0.05), TypeError))
    cases.append(("S2SMiddleware.store_refresher(poll_seconds=)", lambda:
                  repro.S2SMiddleware(watch_domain_ontology())
                  .store_refresher(poll_seconds=0.05), TypeError))
    for module, names in [
            ("repro", ("sql_rule", "xpath_rule", "webl_rule", "regex_rule")),
            ("repro.core.middleware",
             ("sql_rule", "xpath_rule", "webl_rule", "regex_rule")),
            ("repro.core", ("ResilienceConfig", "ConcurrencyConfig",
                            "RefreshPolicy")),
            ("repro.core.resilience",
             ("ResilienceConfig", "ConcurrencyConfig", "UNSET",
              "legacy_kwargs_to_config")),
            ("repro.core.store", ("RefreshPolicy",)),
            ("repro.core.ingest", ("WorkerPool",)),
            ("repro.core.ingest.workers", ("KILL_EXIT_CODE", "WorkerPool")),
            ("repro.core.query.executor.QueryResult", ("_schema",)),
            ("repro.core.extractor.manager.ExtractorManager",
             ("parallel", "max_workers", "retries", "retry_delay"))]:
        for name in names:
            cases.append((f"{module}.{name}", lambda m=module, n=name:
                          getattr(pkgutil.resolve_name(m), n),
                          AttributeError))
    for argv in (["demo", "--parallel"],
                 ["serve", "--duration", "0", "--query-workers", "2"],
                 ["serve", "--duration", "0", "--query-pool", "thread"]):
        cases.append((" ".join(["repro"] + argv), lambda a=argv: main(a),
                      SystemExit))
    return [pytest.param(trigger, error, id=label)
            for label, trigger, error in cases]


class TestRemovedIn20:
    @pytest.mark.parametrize("trigger, error", _removed_spellings())
    def test_removed_spelling_is_rejected(self, trigger, error, capsys):
        with pytest.raises(error) as raised:
            trigger()
        if error is TypeError:
            assert "unexpected keyword argument" in str(raised.value)
        elif error is SystemExit:  # argparse: unrecognized arguments
            assert raised.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestServerConfigValidation:
    def test_defaults_are_valid(self):
        config = repro.config.ServerConfig()
        assert config.port == 0
        assert config.max_queue >= 0

    @pytest.mark.parametrize("kwargs", [
        {"max_inflight": 0},
        {"max_queue": -1},
        {"retry_after_seconds": -0.1},
        {"request_deadline_seconds": 0},
        {"idle_timeout_seconds": -5},
        {"max_frame_bytes": 100},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            repro.config.ServerConfig(**kwargs)

    def test_none_disables_deadlines(self):
        config = repro.config.ServerConfig(request_deadline_seconds=None,
                                           idle_timeout_seconds=None)
        assert config.request_deadline_seconds is None
        assert config.idle_timeout_seconds is None
