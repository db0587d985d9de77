"""XML serializer for the DOM-lite tree.

Pretty-prints with two-space indentation by default; elements whose only
content is text are written on one line so documents stay diff-friendly.
"""

from __future__ import annotations

from .dom import Document, Element, Text


def escape_text(value: str) -> str:
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def escape_attr(value: str) -> str:
    return escape_text(value).replace('"', "&quot;")


def _render_element(element: Element, indent: int, pretty: bool,
                    lines: list[str]) -> None:
    pad = "  " * indent if pretty else ""
    attrs = "".join(
        f' {name}="{escape_attr(value)}"'
        for name, value in element.attributes.items())
    children = element.children
    if not children:
        lines.append(f"{pad}<{element.name}{attrs}/>")
        return
    if all(isinstance(c, Text) for c in children):
        text = escape_text("".join(c.value for c in children))  # type: ignore[union-attr]
        lines.append(f"{pad}<{element.name}{attrs}>{text}</{element.name}>")
        return
    lines.append(f"{pad}<{element.name}{attrs}>")
    for child in children:
        if isinstance(child, Text):
            stripped = child.value.strip()
            if stripped:
                child_pad = "  " * (indent + 1) if pretty else ""
                lines.append(f"{child_pad}{escape_text(stripped)}")
        else:
            _render_element(child, indent + 1, pretty, lines)
    lines.append(f"{pad}</{element.name}>")


def serialize_xml(document: Document | Element, *, pretty: bool = True) -> str:
    """Render a document or element subtree as an XML string."""
    lines: list[str] = []
    if isinstance(document, Document):
        if document.declaration:
            lines.append('<?xml version="1.0" encoding="UTF-8"?>')
        root = document.root
    else:
        root = document
    _render_element(root, 0, pretty, lines)
    return "\n".join(lines) + "\n"
