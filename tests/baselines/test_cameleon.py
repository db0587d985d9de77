"""Tests for the Caméléon-style declarative wrapper."""

import pytest

from repro.baselines.cameleon import (AttributeSpec, CameleonWrapper,
                                      parse_spec)
from repro.errors import S2SError
from repro.sources.textfiles import TextFileStore
from repro.sources.web import SimulatedWeb

SPEC = """
// watch catalog spec
#ATTRIBUTE brand
#BEGIN <td class="brand">
#END </td>

#ATTRIBUTE price
#BEGIN <td class="price">
#END </td>
#PATTERN ([0-9.]+)
"""

PAGE = """
<table>
<tr><td class="brand">Seiko</td><td class="price">199.5</td></tr>
<tr><td class="brand">Casio</td><td class="price">15.5</td></tr>
</table>
"""


@pytest.fixture
def web():
    simulated = SimulatedWeb()
    simulated.publish("http://shop.example/catalog", PAGE)
    return simulated


class TestSpecParsing:
    def test_parse_blocks(self):
        specs = parse_spec(SPEC)
        assert [s.name for s in specs] == ["brand", "price"]
        assert specs[0].pattern == "(.*?)"
        assert specs[1].pattern == "([0-9.]+)"

    def test_comments_ignored(self):
        specs = parse_spec("// only\n#ATTRIBUTE a\n#BEGIN x\n#END y\n")
        assert len(specs) == 1

    def test_missing_begin_rejected(self):
        with pytest.raises(S2SError):
            parse_spec("#ATTRIBUTE a\n#END y\n")

    def test_empty_spec_rejected(self):
        with pytest.raises(S2SError):
            parse_spec("// nothing\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(S2SError):
            parse_spec("#ATTRIBUTE a\n#WHAT x\n")

    def test_bad_pattern_rejected(self):
        spec = AttributeSpec("a", "<", ">", "([")
        with pytest.raises(S2SError):
            spec.compiled()


class TestExtraction:
    def test_web_extraction(self, web):
        wrapper = CameleonWrapper(web=web)
        wrapper.load_spec(SPEC)
        extracted = wrapper.extract("http://shop.example/catalog")
        assert extracted["brand"] == ["Seiko", "Casio"]
        assert extracted["price"] == ["199.5", "15.5"]

    def test_text_extraction_unlike_w4f(self):
        # Caméléon's selling point vs W4F: it also reads text formats.
        files = TextFileStore()
        files.write("inventory.txt",
                    "brand: Seiko | price: 199.5\n"
                    "brand: Casio | price: 15.5\n")
        wrapper = CameleonWrapper(files=files)
        wrapper.load_spec("#ATTRIBUTE brand\n#BEGIN brand: \n#END  |\n")
        assert wrapper.extract("inventory.txt")["brand"] == \
            ["Seiko", "Casio"]

    def test_xml_output(self, web):
        from repro.xmlkit import parse_xml
        wrapper = CameleonWrapper(web=web)
        wrapper.load_spec(SPEC)
        doc = parse_xml(wrapper.extract_xml("http://shop.example/catalog"))
        records = doc.root.find_all("record")
        assert len(records) == 2
        assert records[0].find("brand").text == "Seiko"
        assert records[0].find("price").text == "199.5"

    def test_requires_spec(self, web):
        wrapper = CameleonWrapper(web=web)
        with pytest.raises(S2SError):
            wrapper.extract("http://shop.example/catalog")

    def test_web_locator_without_web(self):
        wrapper = CameleonWrapper(files=TextFileStore())
        wrapper.load_spec(SPEC)
        with pytest.raises(S2SError):
            wrapper.extract("http://nowhere.example/")

    def test_file_locator_without_files(self, web):
        wrapper = CameleonWrapper(web=web)
        wrapper.load_spec(SPEC)
        with pytest.raises(S2SError):
            wrapper.extract("inventory.txt")
