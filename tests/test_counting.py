import hashlib
import math
from collections import Counter
from fractions import Fraction as F

import pytest

from polydiag import counting, partitions
from polydiag.cli import main
from polydiag.counting import (
    FIGURE_KINDS,
    KINDS,
    RationalSeries,
    count_table,
    egf,
    egf_count,
    enumeration_count,
    exp_x,
    recurrence_count,
    series,
    series_exp,
    table_to_csv,
    table_to_markdown,
)
from polydiag.partitions import _classify, _partial_involutions, _rgs, classify, enumerate_tagged_partitions

# the published table of counts, n = 0..8
TABLE = {
    "polydiagonal": [1, 2, 6, 24, 116, 648, 4088, 28640, 219920],
    "synchrony": [1, 1, 2, 5, 15, 52, 203, 877, 4140],
    "anti_synchrony": [0, 1, 4, 19, 101, 596, 3885, 27763, 215780],
    "minimally": [0, 1, 3, 10, 37, 151, 674, 3263, 17007],
    "fully": [1, 1, 2, 7, 29, 136, 737, 4537, 30914],
    "evenly": [1, 1, 2, 4, 13, 41, 176, 722, 3774],
}


def test_series_exp_of_x():
    s = series_exp(series([0, 1], 8))
    assert s.coeffs == tuple(F(1, math.factorial(k)) for k in range(9))


def test_series_exp_bell_numbers():
    bell = series_exp(exp_x(8) - RationalSeries((F(1),) + (F(0),) * 8))
    assert bell.coeffs[5] * math.factorial(5) == 52


def test_series_exp_of_zero():
    s = series_exp(series([0], 5))
    assert s.coeffs == (F(1),) + (F(0),) * 5


def test_series_exp_needs_zero_constant_term():
    with pytest.raises(ValueError):
        series_exp(series([1, 1], 4))


def test_egf_count_goldens():
    assert egf_count("polydiagonal", 8) == 219920
    assert egf_count("evenly", 6) == 176
    assert egf_count("fully", 0) == 1
    with pytest.raises(KeyError):
        egf_count("nonsense", 3)


def test_recurrence_goldens():
    assert recurrence_count("synchrony", 7) == 877
    assert recurrence_count("minimally", 4) == 37
    assert recurrence_count("polydiagonal", 1) == 2
    with pytest.raises(KeyError):
        recurrence_count("freely_fully", 4)


REFUSED = {
    "egf negative n": (lambda: egf_count("synchrony", -1), ValueError, "n must be >= 0"),
    "egf n beyond order": (lambda: egf_count("synchrony", 5, order=4), ValueError, "exceeds truncation order"),
    "recurrence negative n": (lambda: recurrence_count("synchrony", -1), ValueError, "n must be >= 0"),
    "recurrence unknown kind": (lambda: recurrence_count("nonsense", 3), KeyError, "unknown kind"),
    "enumeration unknown kind": (lambda: enumeration_count("nonsense", 3), KeyError, "unknown kind"),
    "series product of two orders": (lambda: series([1, 1], 3) * series([1, 1], 4), ValueError, "orders differ"),
}


@pytest.mark.parametrize("call, error, message", REFUSED.values(), ids=REFUSED.keys())
def test_refuses_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_enumeration_goldens():
    assert enumeration_count("anti_synchrony", 5) == 596
    assert enumeration_count("evenly", 3) == 4
    for n in range(7):
        assert enumeration_count("freely_fully", n) == egf_count("freely_fully", n)
    with pytest.raises(ValueError):
        enumeration_count("evenly", 9)
    for kind in KINDS:
        with pytest.raises(ValueError):
            enumeration_count(kind, -1)


def _object_census(n):
    """The census by building and classifying every tagged partition."""
    counts = dict.fromkeys(TABLE, 0) | {"freely_evenly": 0, "freely_fully": 0, "freely": 0}
    for p in enumerate_tagged_partitions(n):
        c = classify(p)
        counts["polydiagonal"] += 1
        if c.freely_tagged:
            counts["freely"] += 1
        if c.synchrony:
            counts["synchrony"] += 1
        else:
            counts["anti_synchrony"] += 1
        if c.minimally_tagged:
            counts["minimally"] += 1
        if c.fully_tagged:
            counts["fully"] += 1
            if c.freely_tagged:
                counts["freely_fully"] += 1
        if c.evenly_tagged:
            counts["evenly"] += 1
            if c.freely_tagged:
                counts["freely_evenly"] += 1
    return counts


def test_census_matches_object_enumeration():
    for n in range(8):
        assert counting._census(n) == _object_census(n), n
    for n in range(6):
        for p in enumerate_tagged_partitions(n):
            assert classify(p) == _classify(tuple(map(len, p.classes)), p.pairs, p.fixed)


def test_three_way_agreement_small():
    for kind in FIGURE_KINDS:
        for n in range(7):
            assert (
                egf_count(kind, n)
                == recurrence_count(kind, n)
                == enumeration_count(kind, n)
                == TABLE[kind][n]
            )


def test_series_identities():
    order = 12
    e_full = egf("evenly", order)
    e_free = egf("freely_evenly", order)
    f_full = egf("fully", order)
    f_free = egf("freely_fully", order)
    p = egf("polydiagonal", order)
    b = egf("synchrony", order)
    ex = exp_x(order)
    assert (e_free * ex).coeffs == e_full.coeffs
    assert (f_free * ex).coeffs == f_full.coeffs
    assert (egf("freely", order) * ex).coeffs == p.coeffs
    assert (b * f_full).coeffs == p.coeffs


def test_table_relations():
    for n in range(9):
        assert TABLE["anti_synchrony"][n] == TABLE["polydiagonal"][n] - TABLE["synchrony"][n]
        assert TABLE["evenly"][n] <= TABLE["fully"][n]


def test_count_table_columns():
    t0 = count_table(0)
    assert [t0.rows[k][0] for k in FIGURE_KINDS] == [1, 1, 0, 0, 1, 1]
    t2 = count_table(2)
    assert t2.rows["polydiagonal"] == [1, 2, 6]
    assert t2.rows["evenly"] == [1, 1, 2]
    assert all(t2.cross_checked.values())


def test_table_emitters():
    t = count_table(2)
    md = table_to_markdown(t)
    csv = table_to_csv(t)
    assert "| polydiagonal | p | 1 | 2 | 6 | ok |" in md
    assert "polydiagonal,1,2,6,ok" in csv
    assert len(csv.strip().splitlines()) == 1 + len(FIGURE_KINDS)


def test_all_kinds_table():
    t = count_table(4, kinds=KINDS)
    assert t.rows["freely_evenly"] == [1, 0, 1, 0, 6]
    assert all(t.cross_checked.values())
    md = table_to_markdown(count_table(9, kinds=KINDS))
    assert len(md.splitlines()) == 2 + 9 and "MISMATCH" not in md
    assert "| freely | p~ | 1 | 1 | 3 | 11 | 49 | 257 | 1539 | 10299 | 75905 | 609441 | ok |" in md


def test_freely_census_matches_its_egf():
    counts = [1, 1, 3, 11, 49, 257, 1539, 10299, 75905, 609441]
    assert [egf_count("freely", n) for n in range(10)] == counts
    assert [counting._census(n)["freely"] for n in range(10)] == counts  # n = 9 is past the enumeration cap
    with pytest.raises(KeyError, match="no recurrence"):
        recurrence_count("freely", 4)


# p(n), the number of integer partitions of n, for n = 0..12
PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_shapes_are_the_integer_partitions():
    for n, p in enumerate(PARTITION_NUMBERS):
        shapes = list(counting._shapes(n, n))
        assert len(shapes) == len(set(shapes)) == p, n
        for sizes in shapes:
            assert sum(sizes) == n and all(s >= 1 for s in sizes) and list(sizes) == sorted(sizes, reverse=True)


def test_shape_weights_sum_to_the_bell_numbers():
    """Each set partition has one shape, so the shapes' weights add up to
    Bell(n): counted by walking the restricted growth strings, and read
    off the synchrony EGF beyond that."""
    for n in range(13):
        bell = sum(counting._ways(sizes) for sizes in counting._shapes(n, n))
        assert bell == egf_count("synchrony", n), n
        if n <= 9:
            assert bell == sum(1 for _ in _rgs(n)), n


@pytest.mark.parametrize("n", range(9, 17))
def test_census_past_the_cap_matches_every_egf(n):
    assert counting._census(n) == {kind: egf_count(kind, n) for kind in KINDS}


def _type(sizes, pairs, fixed):
    """The census's type of an involution on classes of these sizes: the
    fixed class's size, the number of pairs and, when they pair every
    other class, whether every pair has equal sizes."""
    fully = 2 * len(pairs) + (fixed is not None) == len(sizes)
    return (
        None if fixed is None else sizes[fixed],
        len(pairs),
        all(sizes[i] == sizes[j] for i, j in pairs) if fully else None,
    )


def test_involution_types_match_the_walk():
    """On every shape with m <= 9 classes and at most 3 cells more than
    classes, the types and their numbers equal the tally of the walk over
    every partial involution, one representative per type."""
    for m in range(10):
        walk = list(_partial_involutions(m))
        for n in range(m, m + 4):
            for sizes in counting._shapes(n, n):
                if len(sizes) != m:
                    continue
                types = list(counting._involution_types(sizes))
                tally = Counter()
                for pairs, fixed, number in types:
                    tally[_type(sizes, pairs, fixed)] += number
                assert len(tally) == len(types), sizes
                assert tally == Counter(_type(sizes, pairs, fixed) for pairs, fixed in walk), sizes


def _clear_counting_caches():
    for cached in vars(counting).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


def test_census_classifies_one_involution_per_type(monkeypatch):
    """A return to classifying every (shape, involution) pair, 6,161 calls
    for n <= 8, fails here; the type walk makes 397."""
    calls = Counter()

    def counted(sizes, pairs, fixed):
        calls[sum(sizes)] += 1
        return _classify(sizes, pairs, fixed)

    monkeypatch.setattr(counting, "_classify", counted)
    _clear_counting_caches()
    try:
        assert [counting._census(n)["polydiagonal"] for n in range(9)] == TABLE["polydiagonal"]
    finally:
        _clear_counting_caches()
    assert sum(calls.values()) == 397 and calls[8] == 162


def test_count_table_walks_no_involution(monkeypatch):
    def refuse(m):
        raise AssertionError("the census walked the involutions on %d classes" % m)

    for module in (partitions, counting):
        monkeypatch.setattr(module, "_partial_involutions", refuse, raising=False)
    _clear_counting_caches()
    try:
        assert all(count_table(8).cross_checked.values())
    finally:
        _clear_counting_caches()


def test_three_way_check_catches_a_wrong_egf(monkeypatch, capsys):
    """Give evenly the blocks of fully: its EGF then counts fully tagged
    subspaces, and the recurrence and the census must flag the row."""
    counting.egf.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setitem(KINDS, "evenly", KINDS["evenly"][:2] + ((False, "any", "optional"),))
            t = count_table(6)
            assert not t.cross_checked["evenly"]
            assert all(ok for kind, ok in t.cross_checked.items() if kind != "evenly")
            assert main(["count", "6"]) == 1
            rows = {line.split(" | ")[0]: line for line in capsys.readouterr().out.splitlines()}
            assert rows["| evenly"].endswith("| MISMATCH |")
            assert "MISMATCH" not in "".join(line for kind, line in rows.items() if kind != "| evenly")
    finally:
        counting.egf.cache_clear()
    assert count_table(6).cross_checked["evenly"]


@pytest.mark.parametrize("max_n", range(11))
def test_count_table_truncated_at_max_n_matches_order_16(max_n):
    """Coefficient n of a truncated EGF does not depend on the higher
    orders, so the table's EGFs can stop at max_n."""
    t = count_table(max_n, kinds=KINDS)
    for kind in KINDS:
        assert t.rows[kind] == [egf_count(kind, n, 16) for n in range(max_n + 1)]
        assert t.cross_checked[kind]


# sha256 over egf(kind, 16).coeffs for every kind, then each `count N
# --format F` for N = 0..9 as "N F exit-code" and its stdout
COUNTING_OUTPUT_SHA256 = "df59df2728ce592ba998e6593ffbc9275e4a6b7742919283cdbed9a757257c0b"


def test_counting_output_is_pinned(capsys):
    digest = hashlib.sha256()
    for kind in KINDS:
        digest.update(("%s %r\n" % (kind, egf(kind, 16).coeffs)).encode())
    for n in range(10):
        for fmt in ("md", "csv", "json"):
            code = main(["count", str(n), "--format", fmt])
            digest.update(("%d %s %d\n%s" % (n, fmt, code, capsys.readouterr().out)).encode())
    assert digest.hexdigest() == COUNTING_OUTPUT_SHA256
