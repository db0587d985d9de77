"""Tests for the HTML parser, simulated web and web connector."""

import sys

import pytest

from repro.errors import ExtractionError, PageNotFoundError, WebError
from repro.sources.web import (SimulatedWeb, WebDataSource, parse_html)
from repro.htmlkit import decode_html_entities
from repro.workloads import B2BScenario


class TestHtmlParser:
    def test_simple_structure(self):
        doc = parse_html("<html><body><p>hi</p></body></html>")
        assert doc.find("p").text() == "hi"

    def test_unclosed_tags_tolerated(self):
        doc = parse_html("<ul><li>one<li>two<li>three</ul>")
        assert len(doc.find_all("li")) == 3

    def test_stray_close_tag_dropped(self):
        doc = parse_html("<div>x</span></div>")
        assert doc.find("div").text() == "x"

    def test_void_elements(self):
        doc = parse_html("<p>a<br>b<img src='x.png'>c</p>")
        assert doc.find("p").text() == "abc"
        assert doc.find("img").get("src") == "x.png"

    def test_attributes_variants(self):
        doc = parse_html('<a href="x" id=plain checked>link</a>')
        node = doc.find("a")
        assert node.get("href") == "x"
        assert node.get("id") == "plain"
        assert node.get("checked") == ""

    def test_attribute_names_lowercased(self):
        assert parse_html('<a HREF="x"/>').find("a").get("href") == "x"

    def test_comments_skipped(self):
        doc = parse_html("<p>a<!-- <b>not parsed</b> -->b</p>")
        assert doc.find("b") is None
        assert doc.find("p").text() == "ab"

    def test_entities_decoded_in_text(self):
        doc = parse_html("<p>Seiko &amp; Co &lt;3</p>")
        assert doc.find("p").text() == "Seiko & Co <3"

    def test_unknown_entity_left_alone(self):
        assert decode_html_entities("&unknown;") == "&unknown;"

    def test_numeric_entities(self):
        assert decode_html_entities("&#65;&#x42;") == "AB"

    def test_autoclose_siblings(self):
        doc = parse_html("<table><tr><td>a<td>b<tr><td>c</table>")
        assert len(doc.find_all("tr")) == 2

    def test_text_rendering_blocks(self):
        doc = parse_html(
            "<html><head><title>T</title><style>p{}</style></head>"
            "<body><p>line one</p><p>line   two</p>"
            "<script>var x;</script></body></html>")
        text = doc.text()
        assert "line one\nline two" in text
        assert "var x" not in text
        assert "p{}" not in text

    def test_walks_keep_document_order_and_block_breaks(self):
        doc = parse_html("<div>a<p>b<b>c</b>d</p>e<script>s</script>"
                         "<ul><li>f<li>g</ul>h<span>i<br>j</span></div>k")
        assert doc.text() == "a\nbcd\ne\nf\ng\nhi\nj\nk"
        assert doc.find("div").text() == "abcdesfghij"
        assert [node.tag for node in doc.root.iter()] == [
            "#document", "div", "p", "b", "script", "ul", "li", "li", "span",
            "br"]

    def test_title(self):
        assert parse_html("<title> My Shop </title>").title() == "My Shop"

    def test_never_raises_on_garbage(self):
        parse_html("<<<>>><p <b></b")  # must not raise


class TestSimulatedWeb:
    def test_publish_and_fetch(self):
        web = SimulatedWeb()
        web.publish("http://x.example/p", "<html/>")
        assert web.fetch("http://x.example/p") == "<html/>"

    def test_unknown_url_raises(self):
        with pytest.raises(PageNotFoundError):
            SimulatedWeb().fetch("http://nowhere.example/x")

    def test_relative_url_rejected(self):
        with pytest.raises(WebError):
            SimulatedWeb().fetch("page.html")

    def test_fetch_counts(self):
        web = SimulatedWeb()
        page = web.publish("http://x.example/p", "x")
        web.fetch("http://x.example/p")
        web.fetch("http://x.example/p")
        assert page.fetch_count == 2
        assert web.total_fetches == 2

    def test_mutate(self):
        web = SimulatedWeb()
        web.publish("http://x.example/p", "before")
        web.mutate("http://x.example/p", lambda html: html.upper())
        assert web.fetch("http://x.example/p") == "BEFORE"

    def test_unpublish(self):
        web = SimulatedWeb()
        web.publish("http://x.example/p", "x")
        web.unpublish("http://x.example/p")
        with pytest.raises(PageNotFoundError):
            web.fetch("http://x.example/p")

    def test_urls_listing(self):
        web = SimulatedWeb()
        web.publish("http://b.example/x", "")
        web.publish("http://a.example/x", "")
        assert web.urls() == ["http://a.example/x", "http://b.example/x"]


class TestWebConnector:
    def test_webl_rule_scalar(self, watch_page_web):
        source = WebDataSource("wpage_81", watch_page_web,
                               "http://shop.example/watch81")
        values = source.execute_rule('''
var P = GetURL(SourceURL());
var m = Str_Search(Text(P), `<span id="model">([^<]+)</span>`);
var model = m[0][1];
''')
        assert values == ["SRPD51"]

    def test_webl_rule_list_means_n_records(self, watch_page_web):
        watch_page_web.publish("http://shop.example/list", """
<table><td class="b">one</td><td class="b">two</td></table>""")
        source = WebDataSource("L", watch_page_web,
                               "http://shop.example/list")
        values = source.execute_rule('''
var P = GetURL(SourceURL());
var m = Str_Search(Text(P), `<td class="b">([^<]+)</td>`);
var out = [];
each g in m { out = Append(out, g[1]); }
return out;
''')
        assert values == ["one", "two"]

    def test_connect_fails_for_dead_url(self, watch_page_web):
        source = WebDataSource("X", watch_page_web,
                               "http://shop.example/removed")
        with pytest.raises(ExtractionError):
            source.connect()

    def test_rule_error_wrapped(self, watch_page_web):
        source = WebDataSource("wpage_81", watch_page_web,
                               "http://shop.example/watch81")
        with pytest.raises(ExtractionError):
            source.execute_rule("var x = Undefined_Function();")

    def test_numeric_results_rendered_plainly(self, watch_page_web):
        source = WebDataSource("wpage_81", watch_page_web,
                               "http://shop.example/watch81")
        assert source.execute_rule("var x = 2 + 3;") == ["5"]

    def test_nil_result_is_no_records(self, watch_page_web):
        source = WebDataSource("wpage_81", watch_page_web,
                               "http://shop.example/watch81")
        assert source.execute_rule("return nil;") == []

    def test_list_items_render_as_to_string_does(self, watch_page_web):
        source = WebDataSource("wpage_81", watch_page_web,
                               "http://shop.example/watch81")
        rendered = source.execute_rule(
            'var x = [nil, "x", 2.0, true, 2.5];\n'
            "return [ToString(x[0]), ToString(x[1]), ToString(x[2]), "
            "ToString(x[3]), ToString(x[4])];")
        assert rendered == ["", "x", "2", "true", "2.5"]
        assert source.execute_rule('return [nil, "x", 2.0, true, 2.5];'
                                   ) == rendered

    def test_a_list_of_match_lists_is_an_error(self, watch_page_web):
        source = WebDataSource("wpage_81", watch_page_web,
                               "http://shop.example/watch81")
        with pytest.raises(ExtractionError,
                           match="list of lists.*source=wpage_81"):
            source.execute_rule(
                "var m = Str_Search(Text(GetURL(SourceURL())), "
                '`<span id="model">([^<]+)</span>`);\nreturn m;')

    def test_connection_info_is_url(self, watch_page_web):
        source = WebDataSource("wpage_81", watch_page_web,
                               "http://shop.example/watch81")
        info = source.connection_info()
        assert info.parameters == {"url": "http://shop.example/watch81"}


class TestCompiledRules:
    """A rule is compiled once per text; runs share nothing (PR 23)."""

    @pytest.mark.parametrize("rule", [
        'var x = "abc"[ToNumber("1e999")];',
        'var x = Select("abc", 0, ToNumber("1e999"));',
        "var x = Length();",
        'var x = Append([1]);',
        "var x = " + "+".join(["1"] * 900) + ";",
    ], ids=["infinite-index", "infinite-slice", "no-arguments",
            "too-few-arguments", "900-term-sum"])
    def test_evaluator_failures_reach_the_manager_typed(
            self, watch_page_web, rule):
        source = WebDataSource("wpage_81", watch_page_web,
                               "http://shop.example/watch81")
        with pytest.raises(ExtractionError, match="WebL rule failed"):
            source.execute_rule(rule)

    def test_rule_text_is_compiled_once(self, watch_page_web, monkeypatch):
        from repro.sources.web import source as module
        compiled = []

        def counting(text):
            compiled.append(text)
            return real(text)
        real = module.compile_webl
        monkeypatch.setattr(module, "compile_webl", counting)
        source = WebDataSource("wpage_81", watch_page_web,
                               "http://shop.example/watch81")
        for _ in range(3):
            assert source.execute_rule("var x = Title(GetURL(SourceURL()));"
                                       ) == ["Watch 81"]
        assert len(compiled) == 1

    def test_threads_sharing_a_source_keep_their_own_results(self):
        """Rules without ``return`` answer with the run's last assignment;
        at 2.6 that value lived on the one shared interpreter, and a
        thread could be answered with the other thread's."""
        import sys
        import threading
        from tests.sources.pagegen import span_rule
        web = SimulatedWeb()
        web.publish("http://shop.example/w", "".join(
            f'<span id="{field}">{field.upper()}</span>'
            for field in ("brand", "model")))
        source = WebDataSource("W", web, "http://shop.example/w")
        wrong: list[tuple[str, list[str]]] = []

        def worker(field: str) -> None:
            rule = span_rule(field) + "Length(Text(P));\n"
            for _ in range(1500):
                values = source.execute_rule(rule)
                if values != [field.upper()]:
                    wrong.append((field, values))
        threads = [threading.Thread(target=worker, args=(field,))
                   for field in ("brand", "model", "brand", "model")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []


class TestCollectionIdiom:
    """The scenario's web rules end in ``each g in m { out = Append(out,
    g[1]); }``, which the WebL compiler runs as one comprehension.  The
    differential cannot tell a fast path from its (correct) fallback;
    the cost per record can."""

    @staticmethod
    def calls_and_records(n_products: int) -> tuple[int, int]:
        scenario = B2BScenario(n_sources=8, n_products=n_products, seed=11)
        org = next(o for o in scenario.organizations
                   if o.source_type == "webpage")
        source = scenario.connector(org)
        rule = scenario._native_rule_code(org, "brand")
        records = source.execute_rule(rule)  # connects, compiles
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")
        sys.setprofile(profile)
        try:
            again = source.execute_rule(rule)
        finally:
            sys.setprofile(None)
        assert again == records
        return calls, len(records)

    def test_the_brand_rule_costs_a_few_calls_per_record(self):
        small_calls, small = self.calls_and_records(40)
        large_calls, large = self.calls_and_records(400)
        assert large - small >= 40
        assert (large_calls - small_calls) / (large - small) <= 6, (
            small_calls, large_calls)
