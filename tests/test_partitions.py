import dataclasses
import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from polydiag import cli, linalg
from polydiag.partitions import (
    KINDS,
    TaggedPartition,
    basis,
    classify,
    contains,
    enumerate_tagged_partitions,
    from_symbols,
    orthogonal,
    parse_typical_element,
    tagged,
    type_label,
    typical_element,
)

from btype_oracle import BTypePartition, enumerate_btype_partitions, from_btype, to_btype
from relabel_oracle import relabel


def running_example():
    # classes {1},{2,4},{3},{5,6}; {1}* = {2,4}; {5,6} fixed
    return tagged(6, [[1], [2, 4], [3], [5, 6]], [(0, 1)], 3)


def all_typicals(n, pred=None):
    return [typical_element(p) for p in enumerate_tagged_partitions(n, pred)]


def test_enumeration_n2_matches_table():
    assert sorted(all_typicals(2)) == sorted(
        ["(0,0)", "(a,-a)", "(0,a)", "(a,0)", "(a,a)", "(a,b)"]
    )


def test_enumeration_n3_matches_table():
    assert len(all_typicals(3)) == 24
    assert sorted(all_typicals(3, lambda c: c.synchrony)) == sorted(
        ["(a,a,a)", "(a,b,b)", "(a,b,a)", "(a,a,b)", "(a,b,c)"]
    )
    assert sorted(all_typicals(3, lambda c: c.evenly_tagged)) == sorted(
        ["(0,0,0)", "(0,a,-a)", "(a,0,-a)", "(a,-a,0)"]
    )
    fully_not_evenly = all_typicals(3, lambda c: c.fully_tagged and not c.evenly_tagged)
    assert sorted(fully_not_evenly) == sorted(["(a,-a,-a)", "(a,-a,a)", "(a,a,-a)"])
    assert len(all_typicals(3, lambda c: c.minimally_tagged)) == 10  # 9 nontrivial + (0,0,0)


def test_enumeration_n0():
    ps = list(enumerate_tagged_partitions(0))
    assert len(ps) == 1
    c = classify(ps[0])
    assert c.synchrony and c.fully_tagged and c.evenly_tagged and not c.minimally_tagged
    assert typical_element(ps[0]) == "()"


def test_enumeration_unique():
    for n in range(6):
        ps = list(enumerate_tagged_partitions(n))
        assert len(set(ps)) == len(ps)


def test_classify_examples():
    c = classify(parse_typical_element("(a,-a,0)"))
    assert c.evenly_tagged and c.fully_tagged and c.anti_synchrony and not c.freely_tagged
    c = classify(parse_typical_element("(a,a,-a)"))
    assert c.fully_tagged and not c.evenly_tagged and c.freely_tagged
    c = classify(parse_typical_element("(a,b,0)"))
    assert c.minimally_tagged and not c.fully_tagged
    assert type_label(parse_typical_element("(0,0)")) == "trivial"


def test_classify_flag_consistency():
    for n in range(6):
        for p in enumerate_tagged_partitions(n):
            c = classify(p)
            assert c.synchrony != c.anti_synchrony
            if c.evenly_tagged:
                assert c.fully_tagged
            if c.minimally_tagged and c.fully_tagged:
                assert p.dimension() == 0


def test_trivial_label_is_dimension_zero():
    """type_label reads "trivial" off the symbols: a canonical symbol tuple
    has no positive symbol exactly when every symbol is 0."""
    for n in range(7):
        for p in enumerate_tagged_partitions(n):
            assert (type_label(p) == "trivial") == (p.n > 0 and p.dimension() == 0), p


def test_typical_element_running_example():
    assert typical_element(running_example()) == "(a,-a,b,-a,0,0)"


def test_parse_typical_element():
    assert parse_typical_element("(a,a)") == tagged(2, [[1, 2]])
    assert parse_typical_element("(a,-a,b,-a,0,0)") == running_example()
    for bad in ("(b,a)", "(-a,a)", "(-a)", "(a,-b)", "a,b", "(a,A)", "(0,-0)"):
        with pytest.raises(ValueError):
            parse_typical_element(bad)


def test_typical_round_trip_small_n():
    for n in range(6):
        for p in enumerate_tagged_partitions(n):
            assert parse_typical_element(typical_element(p)) == p


def test_basis_examples():
    vecs = basis(running_example())
    assert vecs == [
        tuple(map(F, (1, -1, 0, -1, 0, 0))),
        tuple(map(F, (0, 0, 1, 0, 0, 0))),
    ]
    assert basis(tagged(2, [[1], [2]])) == [tuple(map(F, (1, 0))), tuple(map(F, (0, 1)))]
    assert basis(tagged(2, [[1, 2]], fixed=0)) == []


def test_basis_vectors_lie_in_subspace_and_are_independent():
    for n in range(5):
        for p in enumerate_tagged_partitions(n):
            vecs = basis(p)
            assert all(contains(p, b) for b in vecs)
            if vecs:
                assert len(linalg._rref_pivots(vecs)[1]) == len(vecs)
            assert len(vecs) == p.dimension()


def test_contains_examples():
    pair = parse_typical_element("(a,-a)")
    assert contains(pair, (3, -3))
    assert not contains(pair, (1, 1))
    aba = parse_typical_element("(a,b,a)")
    assert contains(aba, (1, 2, 1))
    with pytest.raises(ValueError):
        contains(pair, (1, 2, 3))


def test_orthogonal_to_ones_examples():
    ones = [1, 1, 1]
    assert orthogonal(parse_typical_element("(a,-a,0)"), ones)
    assert not orthogonal(parse_typical_element("(a,a,-a)"), ones)
    assert not orthogonal(parse_typical_element("(a,b,c)"), ones)


def test_orthodiagonal_biconditional_small():
    for n in range(5):
        for p in enumerate_tagged_partitions(n):
            assert classify(p).evenly_tagged == orthogonal(p, [1] * p.n)


def test_distinct_partitions_give_distinct_subspaces():
    for n in range(5):
        signatures = set()
        count = 0
        for p in enumerate_tagged_partitions(n):
            count += 1
            vecs = basis(p)
            rows, pivots = linalg._rref_pivots(vecs)
            # the reduced row-echelon form, a canonical name for the span
            signatures.add(tuple(tuple(F(x, row[c]) for x in row) for row, c in zip(rows, pivots)))
        assert len(signatures) == count


def test_relabel_canonicalizes():
    p = parse_typical_element("(a,-a,b)")
    # 1 <-> 3: the pair moves to cells 2 and 3
    assert typical_element(relabel(p, (3, 2, 1))) == "(a,b,-b)"
    assert relabel(p, (1, 2, 3)) == p


def test_relabel_rejects_non_permutations():
    p = parse_typical_element("(a,-a,b)")
    for perm in ((1, 1, 2), (1, 2), (1, 2, 3, 4), (0, 1, 2), (2, 3, 4)):
        with pytest.raises(ValueError):
            relabel(p, perm)


# ---------------------------------------------------------------------------
# B-type partitions


def test_btype_running_example():
    q = to_btype(running_example())
    assert q.classes == frozenset(
        frozenset(s)
        for s in [{-4, -2, 1}, {-1, 2, 4}, {3}, {-3}, {-6, -5, 0, 5, 6}]
    )


def test_btype_empty_partition():
    q = to_btype(tagged(0, []))
    assert q.classes == frozenset({frozenset({0})})
    assert from_btype(q) == tagged(0, [])


def test_btype_round_trip_small():
    for n in range(5):
        for p in enumerate_tagged_partitions(n):
            assert from_btype(to_btype(p)) == p


def test_btype_counts_match_polydiagonals():
    assert sum(1 for _ in enumerate_btype_partitions(1)) == 2
    assert sum(1 for _ in enumerate_btype_partitions(3)) == 24


def test_btype_direct_enumeration_round_trip():
    for n in range(4):
        for q in enumerate_btype_partitions(n):
            assert to_btype(from_btype(q)) == q


def test_btype_validation():
    with pytest.raises(ValueError):
        BTypePartition(1, frozenset({frozenset({0, 1}), frozenset({-1})})).validate()


def _btype(n, *classes):
    return BTypePartition(n, frozenset(map(frozenset, classes)))


REFUSED = {
    "btype cells missing": (lambda: _btype(2, {0}, {1}, {-1}).validate(), "do not partition"),
    "btype classes overlap": (lambda: _btype(1, {-1, 0, 1}, {-1, 1}).validate(), "do not partition"),
    "btype two self-negative classes": (lambda: _btype(1, {0}, {-1, 1}).validate(), "exactly one self-negative"),
    "enumerate negative n": (lambda: list(enumerate_tagged_partitions(-1)), "n must be >= 0"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED.keys())
def test_refuses_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_filters_cover_documented_names():
    assert {"synchrony", "anti-synchrony", "minimally", "fully", "evenly", "freely"} <= set(cli._FILTERS)


def _blocks_of(p):
    """(untagged classes present, (size, size) of each pair, fixed class
    present), read off the symbols: an untagged class is a positive symbol
    whose negative is absent, a pair is s with -s, the fixed class is 0."""
    size = Counter(p.symbols)
    untagged = any(s > 0 and -s not in size for s in size)
    pairs = [(size[s], size[-s]) for s in size if s > 0 and -s in size]
    return untagged, pairs, 0 in size


def _allows(blocks, untagged, pairs, fixed):
    may_untag, may_pair, may_fix = blocks
    return (
        (may_untag or not untagged)
        and (may_pair is not None or not pairs)
        and (may_pair != "even" or all(a == b for a, b in pairs))
        and {None: not fixed, "optional": True, "required": fixed}[may_fix]
    )


def test_kind_blocks_agree_with_the_kind_predicates():
    """A kind allows a tagged partition's blocks exactly when its predicate
    accepts the partition's type, for every partition with n <= 6."""
    cases = 0
    for n in range(7):
        for p in enumerate_tagged_partitions(n):
            found, c = _blocks_of(p), classify(p)
            for kind, (_, test, blocks) in KINDS.items():
                if blocks is not None:
                    assert _allows(blocks, *found) == test(c), (kind, str(p))
                    cases += 1
    assert cases == 39080
    assert KINDS["anti_synchrony"][2] is None


# ---------------------------------------------------------------------------
# the per-cell symbols against the class-list code they replaced


def _old_class_of(p):
    out = [0] * p.n
    for ci, cls in enumerate(p.classes):
        for cell in cls:
            out[cell - 1] = ci
    return tuple(out)


def _old_partners(p):
    out = {}
    for i, j in p.pairs:
        out[i] = j
        out[j] = i
    return out


def _old_typical_element(p):
    from polydiag.partitions import _letter

    partner = _old_partners(p)
    symbol = {}
    fresh = 0
    out = []
    for ci in _old_class_of(p):
        if ci not in symbol:
            if ci == p.fixed:
                symbol[ci] = "0"
            elif ci in partner and partner[ci] in symbol:
                symbol[ci] = "-" + symbol[partner[ci]]
            else:
                symbol[ci] = _letter(fresh)
                fresh += 1
        out.append(symbol[ci])
    return "(" + ",".join(out) + ")"


def _old_contains(p, x):
    vals = []
    for cls in p.classes:
        v0 = x[cls[0] - 1]
        for cell in cls[1:]:
            if x[cell - 1] != v0:
                return False
        vals.append(v0)
    for i, j in p.pairs:
        if vals[i] != -vals[j]:
            return False
    if p.fixed is not None and vals[p.fixed] != 0:
        return False
    return True


def _old_relabel(p, perm):
    classes = [tuple(perm[c - 1] for c in cls) for cls in p.classes]
    return tagged(p.n, classes, p.pairs, p.fixed)


def _old_to_btype(p):
    partner = _old_partners(p)
    out = []
    for ci, cls in enumerate(p.classes):
        if ci == p.fixed:
            out.append(frozenset(cls) | {0} | frozenset(-c for c in cls))
        elif ci in partner:
            out.append(frozenset(cls) | frozenset(-c for c in p.classes[partner[ci]]))
        else:
            out.append(frozenset(cls))
            out.append(frozenset(-c for c in cls))
    if p.fixed is None:
        out.append(frozenset({0}))
    return BTypePartition(p.n, frozenset(out)).validate()


def _old_from_btype(q):
    q.validate()
    pos_classes = []
    for cls in sorted(q.classes, key=min):
        plus = tuple(sorted(k for k in cls if k > 0))
        if plus:
            pos_classes.append((plus, frozenset(cls)))
    classes = [plus for plus, _ in pos_classes]
    index_of = {plus: i for i, (plus, _) in enumerate(pos_classes)}
    pairs = []
    fixed = None
    for plus, cls in pos_classes:
        negated = frozenset(-k for k in cls)
        neg_plus = tuple(sorted(k for k in negated if k > 0))
        if not neg_plus:
            continue
        i, j = index_of[plus], index_of[neg_plus]
        if i == j:
            fixed = i
        elif i < j:
            pairs.append((i, j))
    return tagged(q.n, classes, pairs, fixed)


def _in_subspace(p, rng):
    """A random integer vector of Delta_p."""
    x = [0] * p.n
    for plus, minus in p.supports():
        c = rng.randint(-3, 3)
        for i in plus:
            x[i] = c
        for i in minus:
            x[i] = -c
    return x


def test_symbols_running_example():
    assert running_example().symbols == (1, -1, 3, -1, 0, 0)
    assert tagged(0, []).symbols == ()


def test_symbol_views_match_old_oracles():
    rng = random.Random(11)
    for n in range(7):
        signs = list(itertools.product((-1, 0, 1), repeat=n)) if n <= 4 else []
        for p in enumerate_tagged_partitions(n):
            assert typical_element(p) == _old_typical_element(p)
            q = to_btype(p)
            assert q == _old_to_btype(p)
            assert from_btype(q) == _old_from_btype(q) == p
            vectors = signs + [[rng.randint(-2, 2) for _ in range(n)] for _ in range(4)]
            vectors += [_in_subspace(p, rng) for _ in range(2)]
            for x in vectors:
                assert contains(p, x) == _old_contains(p, x), (p, x)


def test_relabel_matches_old_oracle_under_every_permutation():
    for n in range(5):
        perms = list(itertools.permutations(range(1, n + 1)))
        for p in enumerate_tagged_partitions(n):
            for perm in perms:
                assert relabel(p, perm) == _old_relabel(p, perm)


def test_from_symbols_inverts_symbols_under_any_renaming():
    rng = random.Random(5)
    for n in range(7):
        for p in enumerate_tagged_partitions(n):
            assert from_symbols(p.symbols) == p
            # rename s -> f(s) with f(-s) = -f(s), f injective, 0 kept
            mags = rng.sample(range(1, 1000), n)
            f = {s: rng.choice((-1, 1)) * mags[s - 1] for s in range(1, n + 1)}
            renamed = [0 if s == 0 else (f[s] if s > 0 else -f[-s]) for s in p.symbols]
            assert from_symbols(renamed) == p
            assert from_symbols(renamed).symbols == p.symbols


def _old_symbols(p):
    """The per-class formula of the former cached property."""
    sym = list(range(1, len(p.classes) + 1))
    for i, j in p.pairs:
        sym[j] = -sym[i]
    if p.fixed is not None:
        sym[p.fixed] = 0
    out = [0] * p.n
    for s, cls in zip(sym, p.classes):
        for cell in cls:
            out[cell - 1] = s
    return tuple(out)


def test_symbols_are_the_only_stored_field():
    assert [f.name for f in dataclasses.fields(TaggedPartition)] == ["symbols"]


def test_class_views_round_trip_through_the_canonicalizer():
    for n in range(7):
        for p in enumerate_tagged_partitions(n):
            assert p.symbols == _old_symbols(p)
            assert tagged(p.n, p.classes, p.pairs, p.fixed) == p
            q = from_symbols(list(p.symbols))
            assert q == p and hash(q) == hash(p)


def test_str_bytes_pinned():
    """sha256 of str of every tagged partition with n <= 6, in enumeration
    order; a change of representation must not move it."""
    h = hashlib.sha256()
    for n in range(7):
        for p in enumerate_tagged_partitions(n):
            h.update((str(p) + "\n").encode())
    assert h.hexdigest() == "731b3d0e4a07909a7bf86e05e37c9258715ec6638fcb1ed65ba7e5b54e46194e"


MALFORMED = {
    "empty class": (3, [[1, 2], [], [3]], (), None),
    "repeated cell": (3, [[1, 2], [2, 3]], (), None),
    "repeated cell within a class": (2, [[1, 1], [2]], (), None),
    "missing cell": (3, [[1], [3]], (), None),
    "cell out of range": (2, [[1], [2], [3]], (), None),
    "cell zero": (2, [[0, 1], [2]], (), None),
    "pair index out of range": (2, [[1], [2]], [(0, 2)], None),
    "negative pair index": (2, [[1], [2]], [(-1, 0)], None),
    "self-pair": (2, [[1], [2]], [(1, 1)], None),
    "class in two pairs": (3, [[1], [2], [3]], [(0, 1), (1, 2)], None),
    "pair listed both ways": (2, [[1], [2]], [(0, 1), (1, 0)], None),
    "fixed class out of range": (2, [[1], [2]], (), 2),
    "fixed class also paired": (3, [[1], [2], [3]], [(0, 1)], 1),
    "negative n": (-1, [], (), None),
}


@pytest.mark.parametrize("args", MALFORMED.values(), ids=MALFORMED.keys())
def test_tagged_rejects_malformed_input(args):
    with pytest.raises(ValueError):
        tagged(*args)


def test_tagged_canonicalizes_any_order():
    p = tagged(5, [[5, 4], [3], [2, 1]], [(2, 0)], 1)
    assert p.symbols == (1, 1, 0, -1, -1)
    assert (p.classes, p.pairs, p.fixed) == (((1, 2), (3,), (4, 5)), ((0, 2),), 1)


def test_orthogonal_matches_basis_dot_products():
    rng = random.Random(3)
    for n in range(6):
        signs = list(itertools.product((-1, 0, 1), repeat=n)) if n <= 4 else []
        for p in enumerate_tagged_partitions(n):
            vecs = basis(p)
            vectors = signs + [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(3)]
            for v in vectors:
                assert orthogonal(p, v) == all(sum(x * y for x, y in zip(v, b)) == 0 for b in vecs), (p, v)
    with pytest.raises(ValueError):
        orthogonal(parse_typical_element("(a,-a)"), (1, 1, 1))
