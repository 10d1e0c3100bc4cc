"""The contract of closedpoly's immutable records (named tuples): keyword
construction, repr, read-only fields, value equality and hashing, pickling,
and that the two validating records validate however they are rebuilt."""

import pickle
from fractions import Fraction

import pytest

from closedpoly.decompose import generative
from closedpoly.family import DecompositionData, factor_shift, parse_decomposition_data, stein_check
from closedpoly.monoid import MonoidError, MonoidGens
from closedpoly.newton import newton_summary
from closedpoly.orders import GRLEX, WEIGHTED, OrderError, OrderSpec, normalize
from closedpoly.parsing import parse_poly
from closedpoly.poly import MAX_EXPONENT, MultiPoly, PolyError, UniPoly


def _records():
    """One record of each of the ten classes, as the library builds them."""
    parsed = parse_poly("x1^4 + 2*x1^2*x2 + x2^2 + 1")
    result = generative(parsed.poly)
    data = parse_decomposition_data("-1: 1^2, 2^2\n-2: 1, 2, 3\n*: 3, 3\n", d=3)
    return [
        OrderSpec(kind=WEIGHTED, weights=(1, Fraction(3, 2))),
        MonoidGens(nvars=3, gens=frozenset({(1, 0, 0), (0, 1, 0), (1, 1, 2)})),
        newton_summary(parsed.poly, OrderSpec()),
        normalize(parsed.poly, OrderSpec()),
        parsed,
        result,
        factor_shift(result, -1),
        data.entries[0],
        data,
        stein_check(data, "f"),
    ]


RECORDS = _records()
IDS = [type(r).__name__ for r in RECORDS]
records = pytest.mark.parametrize("record", RECORDS, ids=IDS)


def fields_of(record) -> dict:
    return {name: getattr(record, name) for name in record._fields}


@records
def test_keyword_construction(record):
    assert type(record)(**fields_of(record)) == record


def test_defaults():
    assert OrderSpec() == OrderSpec(kind=GRLEX, weights=None)
    entries = RECORDS[IDS.index("DecompositionData")].entries
    assert DecompositionData(entries=entries).d is None


@records
def test_repr(record):
    body = ", ".join(f"{name}={value!r}" for name, value in fields_of(record).items())
    assert repr(record) == f"{type(record).__name__}({body})"


@records
def test_fields_are_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


@records
def test_equal_fields_give_equal_objects_and_hashes(record):
    twin = type(record)(**fields_of(record))
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)


@records
def test_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record
    polys = [(a, b) for a, b in zip(record, back) if isinstance(a, MultiPoly)]
    assert all(type(b) is type(a) for a, b in polys)


def test_polynomials_unpickle_through_the_constructor():
    big = UniPoly.from_term(1, (MAX_EXPONENT,))  # rebuilt from its one term, not from coeffs
    assert pickle.loads(pickle.dumps(big)) == big
    for tampered in (MultiPoly._checked(2, {(1, -1): Fraction(1)}), UniPoly._checked(1, {(-1,): Fraction(1)})):
        with pytest.raises(PolyError, match="negative exponent"):
            pickle.loads(pickle.dumps(tampered))
    with pytest.raises(PolyError, match="is not an int or a Fraction"):
        pickle.loads(pickle.dumps(MultiPoly._checked(1, {(1,): 0.5})))


def _unchecked(cls, *fields):
    """A record built past its validation, as a tampered pickle would hold it."""
    return tuple.__new__(cls, fields)


def test_unpickling_validates_and_normalizes():
    spec = pickle.loads(pickle.dumps(_unchecked(OrderSpec, WEIGHTED, (1, 2))))
    assert spec.weights == (1, 2) and all(type(w) is Fraction for w in spec.weights)
    gens = pickle.loads(pickle.dumps(_unchecked(MonoidGens, 3, [[1, 0, 0], [1, 1, 2]], None)))
    assert gens.gens == frozenset({(1, 0, 0), (1, 1, 2)}) and gens.bound == 4
    with pytest.raises(OrderError, match="weights must be positive"):
        pickle.loads(pickle.dumps(_unchecked(OrderSpec, WEIGHTED, (1, -2))))
    with pytest.raises(MonoidError, match="has a negative entry"):
        pickle.loads(pickle.dumps(_unchecked(MonoidGens, 2, [[1, -1]], None)))


def test_replace_validates():
    spec = OrderSpec()._replace(kind=WEIGHTED, weights=(1, 2))
    assert all(type(w) is Fraction for w in spec.weights)
    with pytest.raises(OrderError, match="takes no weights"):
        spec._replace(kind=GRLEX)
    gens = MonoidGens(nvars=2, gens=frozenset({(1, 0), (1, 3)}))
    with pytest.raises(MonoidError, match="below the largest generator degree"):
        gens._replace(bound=1)
