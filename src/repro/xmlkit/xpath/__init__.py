"""XPath 1.0 subset engine over the DOM-lite tree.

Supported grammar (the slice used by B2B extraction rules):

* absolute and relative location paths with ``/`` and ``//`` separators;
* name tests, ``*`` wildcard, ``@attribute`` steps, ``.`` and ``..``;
* predicates: numeric position, comparisons, ``and`` / ``or``;
* functions: ``text()``, ``contains()``, ``starts-with()``, ``count()``,
  ``position()``, ``last()``, ``normalize-space()``, ``string()``,
  ``number()``, ``name()``;
* union expressions with ``|``.
"""

from .engine import StepEvaluator, XPath, string_value, xpath_select

__all__ = ["XPath", "xpath_select", "string_value", "StepEvaluator"]
