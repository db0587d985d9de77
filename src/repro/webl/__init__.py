"""A WebL-like web extraction language.

The paper writes web extraction rules in WebL (Kistler & Marais, reference
[6]); its example rule is::

    var P = GetURL("http://www.example.com/watch81");
    var pText = Text(P);
    var regexpr = "<p><b>" + `[0-9a-zA-Z']+`;
    var St = Str_Search(pText, regexpr);
    var spliter = Str_Split(St[0][0], "<>");
    var brand = Select(spliter[2], 0, 6);

This package implements the WebL subset such rules need: ``var``
declarations and assignment, string/regex/number/boolean literals,
arithmetic and comparison operators, indexing, ``if``/``else``,
``while``, ``each … in … { }`` iteration, ``return``, and the web/string
builtins (``GetURL``, ``Text``, ``Elem``, ``Str_Search``, ``Str_Split``,
``Select``, …).  ``GetURL`` resolves against a
:class:`~repro.sources.web.site.SimulatedWeb` supplied by the host.

A program's value is its explicit ``return``, or — matching how the
paper's rule "ends with the extracted value in a variable" — the value of
the last assignment executed.  Programs are compiled to closures once
(:func:`compile_webl`) and run by a :class:`WeblInterpreter`, which holds
the builtin table and the step budget and may be shared between threads.
"""

from .interpreter import WeblInterpreter, compile_webl, run_webl
from .parser import parse_webl

__all__ = ["WeblInterpreter", "compile_webl", "run_webl", "parse_webl"]
