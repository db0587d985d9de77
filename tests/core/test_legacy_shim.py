"""Deprecated-API shims: legacy resilience kwargs and rule helpers.

Deprecated spellings must keep their exact old semantics while warning,
so downstream code migrates on its own schedule without behaviour drift.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import (ExtractionRule, S2SMiddleware, regex_rule, sql_rule,
                   webl_rule, xpath_rule)
from repro.config import ResilienceConfig
from repro.core.resilience import RetryPolicy, legacy_kwargs_to_config
from repro.errors import S2SError
from repro.ontology.builders import watch_domain_ontology
from repro.workloads import B2BScenario


def config_fields_except_clock(config: ResilienceConfig) -> dict:
    """Every config field but the (identity-compared) clock."""
    return {f.name: getattr(config, f.name)
            for f in dataclasses.fields(config) if f.name != "clock"}


class TestLegacyResilienceKwargs:
    def test_legacy_kwargs_warn_once_naming_the_owner(self):
        with pytest.warns(DeprecationWarning,
                          match=r"S2SMiddleware\(parallel, retries\)"):
            S2SMiddleware(watch_domain_ontology(), parallel=True, retries=2)

    @pytest.mark.parametrize("kwargs,explicit", [
        ({"retries": 3, "retry_delay": 0.5},
         {"retry": RetryPolicy.from_legacy(3, 0.5)}),
        ({"parallel": True, "max_workers": 2},  # explicit form warns too
         {"retry": RetryPolicy.from_legacy(0, 0.0),
          "parallel": True, "max_workers": 2}),
        ({"retries": 1},
         {"retry": RetryPolicy.from_legacy(1, 0.0)}),
    ])
    def test_legacy_kwargs_equal_explicit_config(self, kwargs, explicit):
        with pytest.warns(DeprecationWarning):
            shimmed = S2SMiddleware(watch_domain_ontology(), **kwargs)
            expected = ResilienceConfig(breaker=None, failover=False,
                                        **explicit)
        assert config_fields_except_clock(shimmed.resilience) \
            == config_fields_except_clock(expected)

    def test_no_kwargs_is_the_conservative_default_without_warning(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            s2s = S2SMiddleware(watch_domain_ontology())
        assert config_fields_except_clock(s2s.resilience) \
            == config_fields_except_clock(ResilienceConfig.conservative())

    def test_legacy_kwargs_layer_over_an_explicit_base(self):
        base = ResilienceConfig(retry=RetryPolicy(max_attempts=5))
        with pytest.warns(DeprecationWarning):
            config = legacy_kwargs_to_config(base, parallel=True,
                                             owner="Test")
        assert config.parallel is True
        assert config.retry.max_attempts == 5
        assert base.parallel is False  # the base object is not mutated


class TestLegacyRuleHelpers:
    @pytest.mark.parametrize("helper,language,code", [
        (sql_rule, "sql", "SELECT a FROM t"),
        (xpath_rule, "xpath", "//item/name"),
        (webl_rule, "webl", "return [];"),
        (regex_rule, "regex", r"^name=(.*)$"),
    ])
    def test_helpers_warn_and_match_classmethods(self, helper, language,
                                                 code):
        with pytest.warns(DeprecationWarning,
                          match=f"{language}_rule.. is deprecated"):
            old = helper(code, name="n", transform="strip")
        new = getattr(ExtractionRule, language)(code, name="n",
                                                transform="strip")
        assert old == new
        assert old.language == language


class TestOutputFormats:
    def test_output_formats_match_serialize(self):
        scenario = B2BScenario(n_sources=2, n_products=3, seed=7)
        s2s = scenario.build_middleware()
        result = s2s.query("SELECT product")
        formats = s2s.output_formats()
        assert formats  # non-empty, stable tuple
        for format_name in formats:
            rendered = result.serialize(format_name)
            assert isinstance(rendered, str) and rendered

    def test_unknown_format_rejected(self):
        scenario = B2BScenario(n_sources=2, n_products=3, seed=7)
        s2s = scenario.build_middleware()
        result = s2s.query("SELECT product")
        assert "yaml" not in s2s.output_formats()
        with pytest.raises(S2SError):
            result.serialize("yaml")
