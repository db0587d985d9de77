"""An XQuery FLWOR subset.

Paper section 2.3.1 step 2: "For XML data sources, XPath and XQuery can
be used."  This module implements the FLWOR slice extraction rules need::

    for $w in //watch
    where $w/price > 100 and contains($w/case, "steel")
    return $w/brand

* ``for`` binds each node selected by an XPath expression;
* ``where`` (optional) is any XPath predicate expression evaluated with
  the bound node as context;
* ``return`` is an XPath expression evaluated against the bound node;
  its string value(s) become the result items.

The clauses reuse the XPath engine wholesale, so the supported predicate
and function vocabulary is identical to :mod:`repro.xmlkit.xpath`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import XPathError
from .dom import Document, Element
from .xpath.engine import XPath, _to_bool, _to_string, string_value

_FLWOR_RE = re.compile(
    r"""\A\s*
    for\s+\$(?P<variable>[A-Za-z_][A-Za-z0-9_]*)\s+in\s+
    (?P<sequence>.+?)
    (?:\s+where\s+(?P<where>.+?))?
    \s+return\s+(?P<return>.+?)\s*\Z
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class XQuery:
    """A compiled FLWOR expression."""

    variable: str
    sequence: XPath
    where: XPath | None
    returning: XPath
    source: str

    @classmethod
    def compile(cls, text: str) -> "XQuery":
        """Parse a FLWOR expression into a compiled query."""
        match = _FLWOR_RE.match(text)
        if match is None:
            raise XPathError(
                f"not a supported FLWOR expression (expected "
                f"'for $v in <path> [where <expr>] return <expr>'): "
                f"{text!r}")
        variable = match.group("variable")
        where_text = match.group("where")
        return cls(
            variable=variable,
            sequence=XPath(match.group("sequence")),
            where=(XPath(_bind(where_text, variable))
                   if where_text else None),
            returning=XPath(_bind(match.group("return"), variable)),
            source=text,
        )

    def evaluate(self, root: Document | Element) -> list[str]:
        """Run the FLWOR over a document; returns item string values."""
        results: list[str] = []
        for node in self.sequence.select(root):
            if not isinstance(node, Element):
                raise XPathError(
                    f"for-clause of {self.source!r} must select elements, "
                    f"got {type(node).__name__}")
            if self.where is not None:
                if not _to_bool(self.where.evaluate(node)):
                    continue
            value = self.returning.evaluate(node)
            if isinstance(value, list):
                results.extend(string_value(item) for item in value)
            else:
                results.append(_to_string(value))
        return results


def _bind(expression: str, variable: str) -> str:
    """Rewrite ``$v/path`` → ``path`` and bare ``$v`` → ``.``.

    The bound node is the XPath *context node* during evaluation, so
    variable references become context-relative paths."""
    rewritten = re.sub(rf"\${variable}\s*/", "", expression)
    rewritten = re.sub(rf"\${variable}\b", ".", rewritten)
    if "$" in rewritten:
        raise XPathError(
            f"only the for-variable ${variable} may be referenced, "
            f"got {expression!r}")
    return rewritten


def is_flwor(text: str) -> bool:
    """Cheap syntactic test used by the rule dispatcher."""
    return text.lstrip().startswith("for ") or text.lstrip().startswith("for$")
