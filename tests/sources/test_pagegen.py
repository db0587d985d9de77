"""Robustness tests: extraction from noisy, sloppy real-world-ish pages."""

import pytest

from repro import S2SMiddleware, ExtractionRule
from repro.ontology.builders import watch_domain_ontology
from repro.sources.web import SimulatedWeb, WebDataSource, parse_html
from repro.workloads.catalog import generate_products
from tests.sources.pagegen import (render_noisy_catalog_page,
                                   render_noisy_product_page, span_rule)


@pytest.fixture
def products():
    return generate_products(8)


class TestNoisyPages:
    def test_deterministic(self, products):
        assert render_noisy_product_page(products[0]) == \
            render_noisy_product_page(products[0])
        assert render_noisy_product_page(products[0], seed=1) != \
            render_noisy_product_page(products[0], seed=2)

    def test_html_parser_survives_the_mess(self, products):
        for product in products:
            document = parse_html(render_noisy_product_page(product))
            assert document.title().startswith(product.brand)

    def test_text_rendering_skips_scripts_and_styles(self, products):
        document = parse_html(render_noisy_product_page(products[0]))
        text = document.text()
        assert "trackingId" not in text
        assert "font-weight" not in text

    def test_commented_out_data_not_parsed_as_elements(self, products):
        document = parse_html(render_noisy_product_page(products[0]))
        # the comment contains a fake <td class="brand"> — it must not
        # appear as an element
        fake = [node for node in document.root.iter()
                if node.get("class") == "brand"
                and node.text() == "COMMENTED OUT"]
        assert fake == []

    def test_span_rules_extract_despite_noise(self, products):
        web = SimulatedWeb()
        product = products[0]
        web.publish("http://noisy.example/p", render_noisy_product_page(product))
        source = WebDataSource("NOISY", web, "http://noisy.example/p")
        assert source.execute_rule(span_rule("brand")) == [product.brand]
        assert source.execute_rule(span_rule("price")) == \
            [f"{product.price:.2f}"]
        assert source.execute_rule(span_rule("provider")) == \
            [product.provider_name]

    def test_catalog_rules_skip_spacer_rows(self, products):
        web = SimulatedWeb()
        web.publish("http://noisy.example/catalog",
                    render_noisy_catalog_page(products))
        source = WebDataSource("CAT", web, "http://noisy.example/catalog")
        brands = source.execute_rule('''
var P = GetURL(SourceURL());
var m = Str_Search(Text(P), `<td class="brand">([^<]*)</td>`);
var out = [];
each g in m { out = Append(out, g[1]); }
return out;
''')
        assert brands == [p.brand for p in products]

    def test_end_to_end_integration_from_noisy_pages(self, products):
        """Full middleware over one noisy page per product."""
        web = SimulatedWeb()
        s2s = S2SMiddleware(watch_domain_ontology())
        for product in products:
            url = f"http://noisy.example/p{product.product_id}"
            web.publish(url, render_noisy_product_page(product))
            source_id = f"noisy_{product.product_id}"
            s2s.register_source(WebDataSource(source_id, web, url))
            for attribute, field in (
                    (("product", "brand"), "brand"),
                    (("product", "model"), "model"),
                    (("product", "price"), "price"),
                    (("watch", "case"), "case"),
                    (("provider", "name"), "provider")):
                s2s.register_attribute(attribute,
                                       ExtractionRule.webl(span_rule(field)),
                                       source_id)
        result = s2s.query("SELECT product")
        assert len(result) == len(products)
        # only informational "unmapped attribute" notices are acceptable
        assert result.errors.by_phase("extraction") == []
        assert result.errors.by_phase("generation") == []
        truth = {p.key(): p for p in products}
        for entity in result.entities:
            product = truth[(entity.value("brand"), entity.value("model"))]
            assert entity.value("price") == pytest.approx(product.price,
                                                          abs=0.01)
