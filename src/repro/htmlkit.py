"""Tag-soup tolerant HTML parsing (the web substrate's counterpart of
:mod:`repro.xmlkit`; it sits beside the WebL interpreter and the web
source, which both use it, rather than under either).

Real-world B2B supplier pages are rarely well-formed, so unlike the strict
XML parser this one never fails: unknown entities pass through, unclosed
tags are implicitly closed, and stray ``</...>`` tags are dropped.  The
parser produces a lightweight node tree plus the helpers wrappers need:
plain-text rendering (WebL's ``Text``), tag search and attribute access.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .lexing import char_from_code

_VOID_TAGS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
    "meta", "param", "source", "track", "wbr",
})

#: Tags that implicitly close an open tag of the same name (simplified).
_AUTOCLOSE_SIBLINGS = frozenset({"p", "li", "tr", "td", "th", "option"})

_TAG_RE = re.compile(
    r"<(?P<close>/)?(?P<name>[A-Za-z][A-Za-z0-9]*)(?P<attrs>[^>]*?)(?P<self>/)?>"
    r"|<!--(?P<comment>.*?)-->"
    r"|<!(?P<decl>[^>]*)>",
    re.DOTALL,
)
_ATTR_RE = re.compile(
    r"""([A-Za-z_][A-Za-z0-9_\-:]*)\s*(?:=\s*("[^"]*"|'[^']*'|[^\s>]+))?""")

_ENTITIES = {"lt": "<", "gt": ">", "amp": "&", "quot": '"', "apos": "'",
             "nbsp": " ", "copy": "©", "reg": "®",
             "eacute": "é", "mdash": "—", "ndash": "–"}


def decode_html_entities(text: str) -> str:
    """Decode the common named entities plus numeric references.

    Unknown entities are left as-is (tag-soup tolerance)."""
    def replace(match: re.Match) -> str:
        body = match.group(1)
        if not body.startswith("#"):
            return _ENTITIES.get(body, match.group(0))
        char = (char_from_code(body[2:], 16) if body[1] in "xX"
                else char_from_code(body[1:], 10))
        return match.group(0) if char is None else char

    return re.sub(r"&([A-Za-z]+|#[0-9]+|#[xX][0-9A-Fa-f]+);", replace, text)


@dataclass
class HtmlNode:
    """An HTML element node."""

    tag: str
    attributes: dict[str, str] = field(default_factory=dict)
    children: list = field(default_factory=list)  # HtmlNode | str
    parent: "HtmlNode | None" = None

    def append(self, child) -> None:
        """Attach a child node or raw text."""
        if isinstance(child, HtmlNode):
            child.parent = self
        self.children.append(child)

    def iter(self):
        """Depth-first iterator over this node and descendants, in
        document order (iterative: a page may nest thousands deep)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(child for child in reversed(node.children)
                         if isinstance(child, HtmlNode))

    def find_all(self, tag: str) -> list["HtmlNode"]:
        """All descendant elements with the given tag."""
        return [node for node in self.iter()
                if node is not self and node.tag == tag]

    def find(self, tag: str) -> "HtmlNode | None":
        """First descendant element with the given tag, or None."""
        matches = self.find_all(tag)
        return matches[0] if matches else None

    def get(self, attribute: str, default: str | None = None) -> str | None:
        """Attribute value, or ``default``."""
        return self.attributes.get(attribute, default)

    def text(self) -> str:
        """Concatenated descendant text, entity-decoded."""
        parts: list[str] = []
        stack = self.children[::-1]
        while stack:
            child = stack.pop()
            if isinstance(child, str):
                parts.append(decode_html_entities(child))
            else:
                stack.extend(reversed(child.children))
        return "".join(parts)


class HtmlDocument:
    """A parsed HTML page."""

    def __init__(self, root: HtmlNode, source: str) -> None:
        self.root = root
        self.source = source

    def find_all(self, tag: str) -> list[HtmlNode]:
        """All descendant elements with the given tag."""
        return self.root.find_all(tag)

    def find(self, tag: str) -> HtmlNode | None:
        """First descendant element with the given tag, or None."""
        return self.root.find(tag)

    def text(self) -> str:
        """The page rendered to plain text (WebL's ``Text`` operator):
        scripts/styles skipped, block tags become newlines, whitespace
        collapsed per line."""
        lines: list[str] = []
        buffer: list[str] = []
        block_tags = {"p", "div", "br", "tr", "li", "h1", "h2", "h3", "h4",
                      "table", "ul", "ol", "title"}

        def flush() -> None:
            line = " ".join("".join(buffer).split())
            if line:
                lines.append(line)
            buffer.clear()

        # Depth-first in document order; None marks a block's end.
        stack: list = [self.root]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                buffer.append(decode_html_entities(item))
            elif item is None:
                flush()
            elif item.tag not in ("script", "style"):
                if item.tag in block_tags:
                    flush()
                    stack.append(None)
                stack.extend(reversed(item.children))
        flush()
        return "\n".join(lines)

    def title(self) -> str:
        """The page's <title> text, stripped."""
        node = self.find("title")
        return node.text().strip() if node is not None else ""


def parse_html(source: str) -> HtmlDocument:
    """Parse HTML into a node tree; never raises on malformed input."""
    root = HtmlNode("#document")
    stack = [root]
    pos = 0
    for match in _TAG_RE.finditer(source):
        if match.start() > pos:
            text = source[pos:match.start()]
            if text:
                stack[-1].append(text)
        pos = match.end()
        if match.group("comment") is not None or match.group("decl") is not None:
            continue
        name = match.group("name").lower()
        if match.group("close"):
            # Close the nearest matching open tag; drop strays.
            for depth in range(len(stack) - 1, 0, -1):
                if stack[depth].tag == name:
                    del stack[depth:]
                    break
            continue
        attributes: dict[str, str] = {}
        for attr_match in _ATTR_RE.finditer(match.group("attrs") or ""):
            attr_name = attr_match.group(1).lower()
            raw = attr_match.group(2)
            if raw is None:
                attributes[attr_name] = ""
            elif raw[:1] in "\"'":
                attributes[attr_name] = decode_html_entities(raw[1:-1])
            else:
                attributes[attr_name] = decode_html_entities(raw)
        if name in _AUTOCLOSE_SIBLINGS and stack[-1].tag == name:
            stack.pop()
        node = HtmlNode(name, attributes)
        stack[-1].append(node)
        if name not in _VOID_TAGS and not match.group("self"):
            stack.append(node)
    if pos < len(source):
        tail = source[pos:]
        if tail:
            stack[-1].append(tail)
    return HtmlDocument(root, source)
