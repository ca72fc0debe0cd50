"""tools/corpus.py: one digest per case, the same on every run of one tree.

The committed listings in CHANGES.md depend on the numpy and BLAS build,
so no digest is pinned here; the prefix below covers every element, every
backend and both formats, and the ``refusal/`` cases cover the order and
precedence of the refusals.
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


def test_the_refusal_cases_list_the_same_digests_twice(tmp_path):
    # the order and precedence of the refusals, and one circuit that is not
    # refused, digested by their messages and exit codes
    refusals = [case for case in corpus.cases(tmp_path) if case.ident.startswith("refusal/")]
    first = [corpus.digest(case, tmp_path) for case in refusals]
    assert [corpus.digest(case, tmp_path) for case in refusals] == first
    idents = {case.ident for case in refusals}
    assert {
        "refusal/bs-3e6-before-kerr-1e308/numeric/table",
        "refusal/phase-1e308/numeric/table",
        "refusal/bs-1e308/numeric/table",
        "refusal/hardy_vertex-3e16/numeric/table",
        "refusal/bs-1e308-empty-modes/both/table",
        "refusal/tol-nan-cnot-all-inputs/both/table",
        "refusal/tol-0-truncated-bunching/both/table",
        "refusal/box-digits/numeric/table",
        "refusal/box-powers/numeric/table",
    } <= idents


def test_moved_names_each_case_that_differs():
    before = ["a 1", "b 2", "c 3"]
    after = ["a 1", "b 5", "d 4"]
    assert corpus.moved(before, after) == ["moved b", "new d", "gone c"]


def test_every_case_has_its_own_id(tmp_path):
    idents = [case.ident for case in corpus.cases(tmp_path)]
    assert len(idents) == len(set(idents))
    groups = {ident.split("/")[0] for ident in idents}
    assert groups == {"element", "golden", "workload", "cutoff", "refusal", "random", "check"}
