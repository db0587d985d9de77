"""Every public package imports first, in a fresh interpreter.

Inside the suite ``tests/conftest.py`` has already imported most of the
library, which hides an import cycle that only bites the package imported
*first* (``import repro.webl`` failed that way while the HTML parser lived
under ``repro.sources.web``).  So each name gets its own subprocess.
"""

import subprocess
import sys

import pytest

#: The subpackages ``repro/__init__``'s docstring names and the substrates
#: beside them (a submodule import runs its package's ``__init__`` first,
#: so ``repro.webl`` stands for ``repro.webl.lexer`` and the rest).
PUBLIC = ["repro.core", "repro.config", "repro.server", "repro.ontology",
          "repro.sources", "repro.workloads", "repro.baselines",
          "repro.webl", "repro.xmlkit", "repro.rdf", "repro.htmlkit"]


@pytest.mark.parametrize("module", PUBLIC)
def test_imports_first_in_a_fresh_interpreter(module):
    completed = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c",
         f"import {module}"], capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
