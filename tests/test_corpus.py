"""tools/corpus.py: one digest per case, the same on every run of one tree.

The committed listings in CHANGES.md depend on the numpy and BLAS build,
so no digest is pinned here; the prefix below covers every element, every
backend and both formats.
"""

import corpus

from fockbench.dsl import ELEMENT_SYNTAX

PREFIX = 3 * 2 * len(ELEMENT_SYNTAX)


def test_a_prefix_lists_the_same_digests_twice(tmp_path):
    first = corpus.listing(PREFIX)
    assert corpus.listing(PREFIX) == first
    assert len(first) == len({line.split()[0] for line in first}) == PREFIX
    assert corpus.moved(first, first) == []
    cases = corpus.cases(tmp_path)[:PREFIX]
    keywords = {line.split()[0] for case in cases for line in case.program.splitlines()}
    assert {syntax.keyword for syntax in ELEMENT_SYNTAX} <= keywords
    options = {(case.args[-3], case.args[-1]) for case in cases}
    assert options == {(b, f) for b in ("numeric", "symbolic", "both") for f in ("table", "json")}


def test_moved_names_each_case_that_differs():
    before = ["a 1", "b 2", "c 3"]
    after = ["a 1", "b 5", "d 4"]
    assert corpus.moved(before, after) == ["moved b", "new d", "gone c"]


def test_every_case_has_its_own_id(tmp_path):
    idents = [case.ident for case in corpus.cases(tmp_path)]
    assert len(idents) == len(set(idents))
    groups = {ident.split("/")[0] for ident in idents}
    assert groups == {"element", "golden", "workload", "cutoff", "refusal", "random"}
