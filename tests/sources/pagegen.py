"""Realistic product-page generation.

Real supplier pages bury their data in navigation, advertising, inline
scripts and sloppy markup.  These generators wrap product data in that
noise (seeded, deterministic) so wrapper robustness can be tested: the
extraction rules that work on the clean scenario pages must keep working
here, and the tag-soup HTML parser must not trip on the mess.
"""

from __future__ import annotations

import random

from repro.workloads.catalog import ProductRecord

_NAV_ITEMS = ("Home", "Catalog", "Deals", "About us", "Contact",
              "Shipping", "Returns")
_AD_SLOGANS = ("Buy now & save!", "Free shipping over $50",
               "New arrivals — don't miss out", "Sale ends soon!!!")
_SCRIPT_NOISE = """<script type="text/javascript">
var trackingId = 'UA-%(n)s';
function track() { /* <td class="fake">not data</td> */ }
if (1 < 2 && 2 > 1) { track(); }
</script>"""


def _noise_block(rng: random.Random) -> str:
    """One chunk of non-data markup, intentionally sloppy."""
    kind = rng.randrange(5)
    if kind == 0:
        items = "".join(f"<li><a href='/{item.lower().replace(' ', '-')}'>"
                        f"{item}" for item in
                        rng.sample(_NAV_ITEMS, 4))  # unclosed <a>/<li>
        return f"<ul class=nav>{items}</ul>"
    if kind == 1:
        return (f'<div class="ad"><b>{rng.choice(_AD_SLOGANS)}</b>'
                "<img src='banner.gif'></div>")
    if kind == 2:
        return _SCRIPT_NOISE % {"n": rng.randrange(10_000, 99_999)}
    if kind == 3:
        return ("<!-- rendered by LegacyCMS 2.3 "
                '<td class="brand">COMMENTED OUT</td> -->')
    return ("<table class='layout'><tr><td>&nbsp;<td>"
            f"<font size=2>Item of the day: #{rng.randrange(100)}</font>"
            "</table>")  # unclosed td/tr


def render_noisy_product_page(product: ProductRecord, *,
                              seed: int = 7) -> str:
    """A single-record product page drowned in markup noise.

    Data cells use the same ``<span id="...">`` convention the clean
    pages use, so the same extraction rules apply."""
    rng = random.Random(seed ^ product.product_id)
    chunks = [
        "<html><head>",
        f"<title>{product.brand} {product.model} — MegaWatchStore</title>",
        "<style>.ad { color: red } td > span { font-weight: bold }</style>",
        "</head><body>",
        _noise_block(rng),
        _noise_block(rng),
        f"<h1>{product.brand} {product.model}</h1>",
        _noise_block(rng),
        '<div class="product-detail">',
        f'<span id="brand">{product.brand}</span>',
        _noise_block(rng),
        f'<span id="model">{product.model}</span>',
        f'<span id="case">{product.case}</span>',
        f'<span id="movement">{product.movement}</span>',
        f'<span id="water_resistance">{product.water_resistance}</span>',
        _noise_block(rng),
        f'<span id="price">{product.price:.2f}</span>',
        f'<span id="provider">{product.provider_name}</span>',
        f'<span id="provider_country">{product.provider_country}</span>',
        "</div>",
        _noise_block(rng),
        "<div class=footer>&copy; 2006 MegaWatchStore "
        "<a href='/terms'>Terms</body></html>",  # unclosed <a>, no </div>
    ]
    return "\n".join(chunks)


def render_noisy_catalog_page(products: list[ProductRecord], *,
                              seed: int = 7) -> str:
    """An n-record catalog table interleaved with noise rows."""
    rng = random.Random(seed)
    rows = []
    for product in products:
        if rng.random() < 0.4:
            rows.append(f"<tr class='spacer'><td colspan=4>"
                        f"{rng.choice(_AD_SLOGANS)}</tr>")
        rows.append(
            "<tr class='product'>"
            f'<td class="brand">{product.brand}</td>'
            f'<td class="model">{product.model}</td>'
            f'<td class="case">{product.case}</td>'
            f'<td class="price">{product.price:.2f}</td>'
            "</tr>")
    body = "".join(rows)
    return (f"<html><head><title>Catalog</title></head><body>"
            f"{_noise_block(rng)}<table class='products'>{body}</table>"
            f"{_noise_block(rng)}</body></html>")


#: WebL rule extracting one span-marked field from a noisy product page.
def span_rule(field: str) -> str:
    """WebL rule extracting one span-marked field from a noisy page."""
    return (
        'var P = GetURL(SourceURL());\n'
        f'var m = Str_Search(Text(P), `<span id="{field}">([^<]*)</span>`);\n'
        'var v = m[0][1];\n')
