import json

import pytest
from hypothesis import given, settings

from conftest import check_triangle_json, shifted_elements, suite_weights
from cscrystal.bzl import (
    _mark_counts,
    bzl_path,
    c_coefficient,
    c_factored_string,
    decorate_via_operators,
    decorate_via_stats,
    g_coefficient,
)
from cscrystal.rootsys import Shape, rho
from cscrystal.tableaux import (
    BZL_LAYOUT,
    STATS_LAYOUT,
    DecoratedTriangle,
    content,
    is_strict,
    make_tableau,
)
from cscrystal.tpoly import QLaurent, TPoly
from oracles import gl_to_alpha, highest_weight_tableau
from stats_twin import twin_stats_a
from test_word_kernel import strict_shape_tableaux


B1 = [[1, 2, 2], [3, 3]]
B2 = [[1, 2, 3], [2, 3]]
B4 = [[1, 3], [2]]
B5 = [[2, 2], [3]]
B6 = [[2, 3], [3]]


def _stats(rows):
    """The statistics triangle of the rank-2 tableau with these rows."""
    return decorate_via_stats(make_tableau(2, rows))


def test_bzl_path_values():
    t1 = make_tableau(2, B1)
    tri = bzl_path(t1)
    assert tri.inline(BZL_LAYOUT) == "(2; 2, 0)"
    assert tri.grid == ((2, 0), (2,))
    assert tri.total() == 4
    t2 = make_tableau(2, B2)
    assert bzl_path(t2).inline(BZL_LAYOUT) == "(1; 2, 1)"
    t5 = make_tableau(2, B5)
    assert bzl_path(t5).inline(BZL_LAYOUT) == "(2; 1, 0)"


def test_bzl_path_of_highest_weight_is_zero():
    hw = highest_weight_tableau(Shape((3, 2, 0)), 2)
    tri = bzl_path(hw)
    assert all(v == 0 for row in tri.grid for v in row)


def test_bzl_path_requires_strict_shape():
    column = make_tableau(2, [[1], [2]])  # shape (1,1,0) repeats a part
    with pytest.raises(ValueError):
        bzl_path(column)


def test_non_strict_shape_message_names_the_shape(capsys):
    # strictness is read from the last GT row; the message still comes
    # from the shape
    from cscrystal.cli import main

    message = "tableau shape (1, 1, 0) is not strictly decreasing"
    column = make_tableau(2, [[1], [2]])
    for route in (bzl_path, decorate_via_operators, decorate_via_stats):
        with pytest.raises(ValueError) as err:
            route(column)
        assert str(err.value) == message
    assert main(["bzl", "--rank", "2", "--tableau", "1 / 2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _stop_one_raise_short(monkeypatch):
    """Make every stage of the block walk that raises leave its last
    raised column's mover at i+1, and count one step fewer."""
    from cscrystal import bzl

    real = bzl._raise_runs

    def short(runs, i):
        raised, plus = real(runs, i)
        if raised:
            # only this stage's raised columns have mover i; the last in
            # word order gives its last column back
            k = max(k for k, run in enumerate(runs) if run[1] == i)
            g, _, n = runs[k]
            runs[k : k + 1] = [(g, i, n - 1)] * (n > 1) + [(g, i + 1, 1)]
        return raised - bool(raised), plus

    monkeypatch.setattr(bzl, "_raise_runs", short)


def test_top_check_runs_for_every_element(monkeypatch):
    from cscrystal.crystal import enumerate_crystal

    shape = Shape((3, 2, 0))
    top = highest_weight_tableau(shape, 2)
    _stop_one_raise_short(monkeypatch)
    decorate_via_operators(top)  # nothing to raise: the walk is already at the top
    low = next(t for t in enumerate_crystal(shape, 2) if t != top)
    with pytest.raises(RuntimeError):
        decorate_via_operators(low)
    with pytest.raises(RuntimeError):
        bzl_path(low)


def test_block_top_check_runs_in_verify(capsys, monkeypatch):
    # verify walks blocks, not elements; each block walk must end at the
    # top of its own word, and a breach there exits 3
    from cscrystal.cli import main

    _stop_one_raise_short(monkeypatch)
    assert main(["verify", "--rank", "2", "--lambda", "1,0"]) == 3
    err = capsys.readouterr().err
    assert "internal invariant breach" in err
    assert "did not finish at the highest-weight tableau" in err


def test_top_check_runs_in_bzl_command(capsys, monkeypatch):
    from cscrystal.cli import main

    _stop_one_raise_short(monkeypatch)
    # the walk's own top check fires, before the two routes are compared
    assert main(["bzl", "--rank", "2", "--tableau", "1 2 2 / 3 3"]) == 3
    assert "internal invariant breach: walk did not finish" in capsys.readouterr().err


def test_bzl_command_reads_gt_rows_once():
    # both decoration routes and is_strict share one reading of the
    # tableau's GT rows
    from cscrystal import tableaux
    from cscrystal.cli import main

    tableaux.gt_rows.cache_clear()
    assert main(["bzl", "--rank", "3", "--tableau", "1 1 2 4 / 2 3 4 / 3 4"]) == 0
    assert tableaux.gt_rows.cache_info().misses == 1


def test_path_total_equals_simple_root_drop():
    for lam in suite_weights():
        if lam.rank > 2:
            continue
        shifted = lam + rho(lam.rank)
        for t in shifted_elements(lam):
            drop = gl_to_alpha(shifted - content(t))
            assert bzl_path(t).total() == sum(drop)


def test_operator_route_decorations():
    # cell (i, j) holds the steps of letter i in block j
    tri = decorate_via_operators(make_tableau(2, B1))
    assert tri.grid == ((2, 0), (2,))
    assert tri.boxed == frozenset({(2, 2)})
    assert tri.circled == frozenset({(1, 2)})
    assert tri.inline(BZL_LAYOUT) == "(2; 2□, 0◯)"
    assert tri.inline() == "(2, 0◯; 2□)"

    tri2 = decorate_via_operators(make_tableau(2, B2))
    assert tri2.boxed == frozenset({(1, 1), (1, 2)})
    assert tri2.circled == frozenset()
    assert tri2.inline(BZL_LAYOUT) == "(1□; 2, 1□)"


def test_stats_route_decorations():
    tri = _stats(B1)
    assert tri.grid == ((2, 0), (2,))
    assert tri.boxed == frozenset({(2, 2)})
    assert tri.circled == frozenset({(1, 2)})
    assert tri.inline() == "(2, 0◯; 2□)"


def test_layout_conversion_is_inverse():
    # a print layout only relabels cells: PATH label (i, j) shows cell
    # (i-j+1, i), and either layout's labels cover each cell once
    for rows in (B1, B2, B5, B6):
        ops = decorate_via_operators(make_tableau(2, rows))
        for layout in (BZL_LAYOUT, STATS_LAYOUT):
            check_triangle_json(ops.to_json_dict(layout), ops, layout)
        path = ops.to_json_dict(BZL_LAYOUT)["entries"]
        assert [(e["i"], e["j"]) for e in path] == [(1, 1), (2, 1), (2, 2)]


def test_decoration_routes_agree_on_examples():
    for rows in (B1, B2, B4, B5, B6):
        t = make_tableau(2, rows)
        assert decorate_via_operators(t) == decorate_via_stats(t)


def test_decoration_routes_agree_on_crystals():
    for parts in [(2, 1, 0), (3, 2, 0)]:
        rank = len(parts) - 1
        for t in shifted_elements_for_shape(parts, rank):
            assert decorate_via_operators(t) == decorate_via_stats(t)


def shifted_elements_for_shape(parts, rank):
    from cscrystal.crystal import enumerate_crystal

    return enumerate_crystal(Shape(parts), rank)


def test_path_entries_match_stats_by_layout_bijection():
    for parts in [(2, 1, 0), (3, 2, 0)]:
        rank = len(parts) - 1
        for t in shifted_elements_for_shape(parts, rank):
            # the steps of letter i in block j are a_{i,j}
            assert bzl_path(t) == twin_stats_a(t.rank, t.rows)


def test_doubly_decorated_witness():
    t4 = make_tableau(2, B4)
    tri = decorate_via_stats(t4)
    assert sorted(tri.circled & tri.boxed) == [(1, 1)]
    assert not is_strict(t4)
    assert c_coefficient(tri) == TPoly.zero()
    assert g_coefficient(tri) == QLaurent.zero()


def test_g_values():
    assert g_coefficient(_stats(B1)).terms == {3: -1, 2: 1}
    assert g_coefficient(_stats(B2)).terms == {2: 1, 1: -1}
    hw = highest_weight_tableau(Shape((3, 2, 0)), 2)
    assert g_coefficient(decorate_via_stats(hw)) == QLaurent({0: 1})


def test_g_from_triangle_four_cases():
    # one entry of each kind: plain 2, boxed 1, circled 3, boxed zero
    tri = DecoratedTriangle(
        rank=2,
        grid=((2, 3), (1,)),
        circled=frozenset({(1, 2)}),
        boxed=frozenset({(2, 2)}),
    )
    # plain 2 -> q^2 - q; circled 3 -> q^3; boxed 1 -> -q^0
    assert g_coefficient(tri) == QLaurent({5: -1, 4: 1})
    both = DecoratedTriangle(
        rank=2,
        grid=((2, 3), (1,)),
        circled=frozenset({(2, 2)}),
        boxed=frozenset({(2, 2)}),
    )
    assert g_coefficient(both) == QLaurent.zero()


def test_c_values():
    assert c_coefficient(_stats(B1)) == TPoly((0, -1, 1))
    assert c_coefficient(_stats(B2)) == TPoly((0, 0, 1, -1))
    assert c_coefficient(_stats([[1, 2], [3]])) == TPoly((0, -1, 1))
    assert c_coefficient(_stats(B4)) == TPoly.zero()
    assert c_coefficient(_stats(B5)) == TPoly((0, 0, 1))
    assert c_coefficient(_stats(B6)) == TPoly((0, 0, 0, -1))


def test_mark_counts_and_factored_form():
    assert _mark_counts(_stats([[1, 2], [3]])) == (True, 1, 1)
    assert _mark_counts(_stats(B4))[0] is False
    assert c_factored_string(_stats([[1, 2], [3]])) == "-t(1-t)"
    assert c_factored_string(_stats(B5)) == "t^2"
    assert c_factored_string(_stats(B6)) == "-t^3"
    assert c_factored_string(_stats(B4)) == "0"
    # every entry of the highest-weight path is zero and circled
    hw = highest_weight_tableau(Shape((2, 1, 0)), 2)
    tri = decorate_via_stats(hw)
    assert _mark_counts(tri) == (True, 0, 0)
    assert c_factored_string(tri) == "1"
    assert c_coefficient(tri) == TPoly((1,))


def test_bridge_g_q_shift_equals_c():
    for parts in [(2, 1, 0), (3, 2, 0), (1, 0), (3, 1, 0)]:
        rank = len(parts) - 1
        for t in shifted_elements_for_shape(parts, rank):
            tri = decorate_via_stats(t)
            bridged = g_coefficient(tri).shift(-bzl_path(t).total())
            assert bridged == c_coefficient(tri).to_qlaurent()


@settings(max_examples=100, deadline=None)
@given(strict_shape_tableaux())
def test_bridge_g_q_shift_equals_c_at_ranks_4_and_5(t):
    tri = decorate_via_stats(t)
    bridged = g_coefficient(tri).shift(-bzl_path(t).total())
    assert bridged == c_coefficient(tri).to_qlaurent()


def test_strictness_lemma_on_suite():
    for lam in suite_weights():
        if lam.rank > 2:
            continue
        for t in shifted_elements(lam):
            tri = decorate_via_stats(t)
            doubled = sorted(tri.circled & tri.boxed)
            if is_strict(t):
                assert doubled == []
            else:
                assert doubled != []
                assert c_coefficient(decorate_via_stats(t)) == TPoly.zero()


@settings(max_examples=100, deadline=None)
@given(strict_shape_tableaux())
def test_strictness_lemma_at_ranks_4_and_5(t):
    tri = decorate_via_stats(t)
    no_double = not tri.circled & tri.boxed
    assert is_strict(t) == no_double == (not c_coefficient(decorate_via_stats(t)).is_zero())


def _violating_row_pairs(t):
    # all i where rows i and i+1 hold equally many entries <= k for some k
    def count(k, i):
        if i > len(t.rows):
            return 0
        return sum(1 for x in t.rows[i - 1] if x <= k)

    out = set()
    for k in range(2, t.rank + 2):
        for i in range(1, k):
            if count(k, i) == count(k, i + 1):
                out.add(i)
    return sorted(out)


def test_doubly_decorated_entry_sits_in_violating_row_pair():
    # the witness lives in stats rows v or v+1 for some violating pair
    for lam in suite_weights():
        if lam.rank > 2:
            continue
        for t in shifted_elements(lam):
            if is_strict(t):
                continue
            violations = _violating_row_pairs(t)
            assert violations
            tri = decorate_via_stats(t)
            witnesses = sorted(tri.circled & tri.boxed)
            assert any(
                u in (v, v + 1) for (u, _) in witnesses for v in violations
            )


def test_lone_dominant_entry_keeps_nonzero_coefficient():
    # row 1 ends in a 3 that exceeds everything in row 2, yet no
    # truncation is pinched: the coefficient must survive for the
    # deformed character sum over shape (3,1,0) to balance
    t = make_tableau(2, [[1, 1, 3], [2]])
    assert is_strict(t)
    tri = decorate_via_stats(t)
    assert not tri.circled & tri.boxed
    assert tri.boxed == frozenset()
    assert c_coefficient(tri) == TPoly((1, -1))
    assert bzl_path(t).inline(BZL_LAYOUT) == "(0; 1, 1)"
    assert g_coefficient(tri).shift(-2) == c_coefficient(tri).to_qlaurent()


def test_triangle_json_roundtrip():
    for tri in (
        decorate_via_operators(make_tableau(2, B1)),
        _stats(B4),
    ):
        for layout in (BZL_LAYOUT, STATS_LAYOUT):
            blob = json.dumps(tri.to_json_dict(layout))
            check_triangle_json(json.loads(blob), tri, layout)


def test_triangle_entry_out_of_range_reads_zero():
    tri = bzl_path(make_tableau(2, B1))
    assert tri.entry(2, 2) == 2
    assert tri.entry(2, 1) == 0
    assert tri.entry(1, 3) == 0
    assert tri.entry(3, 3) == 0
    assert tri.entry(0, 1) == 0
