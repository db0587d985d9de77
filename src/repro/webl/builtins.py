"""WebL builtin functions.

The web builtins operate on :class:`PageValue` objects returned by
``GetURL``.  ``Text(P)`` yields the page's raw markup string — this is what
the paper's rule regex-searches ("<p><b>" is found in it) — while
``PlainText(P)`` yields the tag-stripped rendering for rules that prefer
it.  String builtins follow the paper's usage:

* ``Str_Search(text, pattern)`` → list of matches, each a list of groups
  with group 0 the whole match (the rule indexes ``St[0][0]``);
* ``Str_Split(text, delimiters)`` → split on any character of
  ``delimiters``, dropping empty fields (so splitting ``"<p><b>Seiko"`` on
  ``"<>"`` yields ``["p", "b", "Seiko"]``);
* ``Select(value, start, end)`` → substring / sublist slice, clamped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import WeblRuntimeError
from ..htmlkit import HtmlDocument, parse_html


@dataclass
class PageValue:
    """A fetched page: URL + markup + lazily parsed document."""

    url: str
    markup: str
    _document: HtmlDocument | None = None

    @property
    def document(self) -> HtmlDocument:
        """The lazily parsed HTML document of this page."""
        if self._document is None:
            self._document = parse_html(self.markup)
        return self._document

    def __repr__(self) -> str:
        return f"Page({self.url!r})"


def _require_text(value, function: str) -> str:
    if isinstance(value, PageValue):
        return value.markup
    if isinstance(value, str):
        return value
    raise WeblRuntimeError(
        f"{function} expects a string or page, got {type(value).__name__}")


def _require_page(value, function: str) -> PageValue:
    if not isinstance(value, PageValue):
        raise WeblRuntimeError(
            f"{function} expects a page (from GetURL), got "
            f"{type(value).__name__}")
    return value


def _slice_bound(value, which: str) -> int:
    if not isinstance(value, (int, float)):
        raise WeblRuntimeError(f"Select {which} must be a number")
    try:
        return int(value)
    except (OverflowError, ValueError):  # infinity, NaN
        raise WeblRuntimeError(
            f"Select {which} must be finite, got {value}") from None


def stringify(value) -> str:
    """How WebL renders a value: ``ToString``, ``+`` with a string, and a
    web source's records all go through here."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def append(target, item) -> list:
    """``Append``, at module level so the compiler can tell the stock
    builtin from a host's override by identity."""
    if not isinstance(target, list):
        raise WeblRuntimeError("Append expects a list")
    target.append(item)
    return target


def make_builtins(fetch) -> dict:
    """Build the builtin table; ``fetch(url) -> str`` supplies page bodies."""

    def get_url(url) -> PageValue:
        if not isinstance(url, str):
            raise WeblRuntimeError("GetURL expects a URL string")
        return PageValue(url, fetch(url))

    def text(value) -> str:
        return _require_text(value, "Text")

    def plain_text(value) -> str:
        if isinstance(value, PageValue):
            return value.document.text()
        return _require_text(value, "PlainText")

    def title(value) -> str:
        return _require_page(value, "Title").document.title()

    def elem(value, tag) -> list[str]:
        page = _require_page(value, "Elem")
        if not isinstance(tag, str):
            raise WeblRuntimeError("Elem expects a tag name string")
        return [node.text().strip()
                for node in page.document.find_all(tag.lower())]

    def attr(value, tag, attribute) -> list[str]:
        page = _require_page(value, "Attr")
        return [node.get(str(attribute), "")
                for node in page.document.find_all(str(tag).lower())]

    def str_search(value, pattern) -> list[list[str]]:
        text_value = _require_text(value, "Str_Search")
        if not isinstance(pattern, str):
            raise WeblRuntimeError("Str_Search expects a pattern string")
        try:
            compiled = re.compile(pattern, re.DOTALL)
        except re.error as exc:
            raise WeblRuntimeError(
                f"invalid regular expression {pattern!r}: {exc}") from exc
        return [[match[0], *match.groups("")]
                for match in compiled.finditer(text_value)]

    def str_split(value, delimiters) -> list[str]:
        text_value = _require_text(value, "Str_Split")
        if not isinstance(delimiters, str) or not delimiters:
            raise WeblRuntimeError(
                "Str_Split expects a non-empty delimiter character set")
        pattern = "[" + re.escape(delimiters) + "]+"
        return [field for field in re.split(pattern, text_value) if field]

    def select(value, start, end=None):
        begin = _slice_bound(start, "start")
        if isinstance(value, str) or isinstance(value, list):
            if end is None:
                return value[begin:]
            return value[begin:_slice_bound(end, "end")]
        raise WeblRuntimeError(
            f"Select expects a string or list, got {type(value).__name__}")

    def str_replace(value, pattern, replacement) -> str:
        text_value = _require_text(value, "Str_Replace")
        try:
            return re.sub(str(pattern), str(replacement), text_value)
        except re.error as exc:
            raise WeblRuntimeError(
                f"invalid regular expression {pattern!r}: {exc}") from exc

    def str_trim(value) -> str:
        return _require_text(value, "Str_Trim").strip()

    def str_lower(value) -> str:
        return _require_text(value, "Str_Lower").lower()

    def str_upper(value) -> str:
        return _require_text(value, "Str_Upper").upper()

    def str_contains(value, needle) -> bool:
        return str(needle) in _require_text(value, "Str_Contains")

    def str_index(value, needle) -> int:
        return _require_text(value, "Str_Index").find(str(needle))

    def length(value) -> int:
        if isinstance(value, (str, list)):
            return len(value)
        raise WeblRuntimeError(
            f"Length expects a string or list, got {type(value).__name__}")

    def to_number(value) -> float:
        try:
            text_value = str(value).strip()
            cleaned = re.sub(r"[^0-9eE+\-.]", "", text_value)
            return float(cleaned)
        except (TypeError, ValueError) as exc:
            raise WeblRuntimeError(
                f"ToNumber cannot convert {value!r}") from exc

    return {
        "GetURL": get_url,
        "Text": text,
        "PlainText": plain_text,
        "Title": title,
        "Elem": elem,
        "Attr": attr,
        "Str_Search": str_search,
        "Str_Split": str_split,
        "Str_Replace": str_replace,
        "Str_Trim": str_trim,
        "Str_Lower": str_lower,
        "Str_Upper": str_upper,
        "Str_Contains": str_contains,
        "Str_Index": str_index,
        "Select": select,
        "Length": length,
        "ToNumber": to_number,
        "ToString": stringify,
        "Append": append,
    }
