"""``LIKE`` pattern matching, one definition for both query languages.

S2SQL conditions (``core.query``) and the embedded SQL engine
(``sources.relational.sql``) give ``LIKE`` the same meaning; it lives
here so neither has to import the other's package.
"""

from __future__ import annotations

import re


def like_to_regex(pattern: str) -> re.Pattern:
    """Compile a ``LIKE`` pattern: ``%`` matches any run of characters
    (newlines included), ``_`` exactly one, everything else itself;
    case-insensitive, anchored at both ends."""
    parts = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts) + r"\Z", re.IGNORECASE | re.DOTALL)
