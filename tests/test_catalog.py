import pytest

from twogroups.catalog import (
    CatalogError,
    fingerprint,
    parse_catalog,
    serialize,
    serialize_catalog,
    shipped_group,
)
from twogroups.pcgroup import central_quotient

SHIPPED_NAMES = {
    "C2", "C4", "C8", "C2xC2", "C2xC2xC2", "C2xC4", "D8", "Q8",
    "SG128_1376", "SG128_1377", "SG256_8129", "SG256_8177", "SG256_9039",
    "G16384",
}


def test_shipped_names_and_orders(cat):
    assert set(cat) == SHIPPED_NAMES
    assert cat["G16384"].order == 16384
    assert cat["SG256_8177"].order == 256
    for g in cat.values():
        assert g.consistency_failures() == []


def test_parse_minimal_entry():
    groups = parse_catalog("group C2\nngens 1\nend\n")
    assert len(groups) == 1 and groups[0].order == 2


def test_parse_rejects_earlier_generator():
    bad = "group X\nngens 3\npow 2 = 1\nend\n"
    with pytest.raises(CatalogError) as err:
        parse_catalog(bad)
    assert err.value.line == 3


def test_parse_rejects_syntax_error():
    with pytest.raises(CatalogError) as err:
        parse_catalog("group X\nngens two\nend\n")
    assert err.value.line == 2


def test_parse_rejects_duplicate_names():
    text = "group A\nngens 1\nend\ngroup A\nngens 1\nend\n"
    with pytest.raises(CatalogError):
        parse_catalog(text)


def test_parse_rejects_inconsistent_presentation():
    # order-2 collapse: x1^2 = x2 with x2^2 = x2-like junk is caught by the
    # consistency scan (comm value breaking associativity)
    bad = "group X\nngens 3\npow 1 = 2\npow 2 = 3\ncomm 1 2 = 3\nend\n"
    with pytest.raises(CatalogError):
        parse_catalog(bad)


def test_round_trip(cat):
    text = serialize_catalog(list(cat.values()))
    again = parse_catalog(text)
    assert len(again) == len(cat)
    for g in again:
        h = cat[g.name]
        assert (g.n, g.powers, g.comms) == (h.n, h.powers, h.comms)
        assert serialize(g) == serialize(h)


def test_fingerprint_separates_abelians(cat):
    assert fingerprint(cat["C4"]) != fingerprint(cat["C2xC2"])


def test_fingerprint_separates_d8_q8(cat):
    fp_d8, fp_q8 = fingerprint(cat["D8"]), fingerprint(cat["Q8"])
    assert fp_d8 != fp_q8
    assert fp_d8.class_sizes == fp_q8.class_sizes
    assert fp_d8.order_profile != fp_q8.order_profile


def test_fingerprint_quotient_matches_shipped(cat):
    g = cat["SG256_8177"]
    q = central_quotient(g, g.element_from_indices([7, 8])).target
    assert fingerprint(q) == fingerprint(cat["SG128_1377"])


def test_fingerprints_pairwise_distinct_where_expected(cat):
    # all shipped groups of equal order are non-isomorphic, so fingerprints
    # must separate them
    by_order = {}
    for name, g in cat.items():
        by_order.setdefault(g.order, []).append(name)
    for names in by_order.values():
        fps = [fingerprint(cat[n]) for n in names]
        assert len(set(fps)) == len(names)


def test_shipped_group_lookup():
    assert shipped_group("Q8").order == 8
    with pytest.raises(KeyError):
        shipped_group("NOSUCH")
