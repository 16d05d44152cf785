"""The package's records are immutable tuples of their fields."""

import pytest

from coverideal.correspondence import probe_expansion, verify_correspondence
from coverideal.graphs import family
from coverideal.ideals import cover_ideal, irreducible_decomposition

C5 = family("cycle", 5)

# Each record with its fields; none repeats what its caller passed in.
RECORDS = {
    "Graph": (C5, ("n", "masks")),
    "MonomialIdeal": (cover_ideal(C5), ("nvars", "gens")),
    "ComponentCorrespondence": (
        verify_correspondence(C5, 2)[0],
        ("component", "chi", "verified_critical"),
    ),
    "ConjectureWitness": (
        probe_expansion(C5, {0, 2}),
        ("W", "is_maximal_independent", "expanded_chi", "expanded_critical"),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_frozen_and_hashes_by_fields(name):
    record, _ = RECORDS[name]
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    rebuilt = type(record)(*record)
    assert rebuilt is not record
    assert rebuilt == record and hash(rebuilt) == hash(record)


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields(name):
    record, fields = RECORDS[name]
    assert record._fields == fields


def test_component_is_a_plain_exponent_vector():
    # A component is a monomial's exponent tuple, indexed by variable and
    # 0 off its support, not a record.
    I = cover_ideal(C5)
    component = irreducible_decomposition(I)[0]
    assert type(component) is type(I.gens[0]) is tuple
    assert len(component) == I.nvars
    assert all(type(e) is int for e in component)
    assert component == (1, 1, 0, 0, 0)
    assert type(verify_correspondence(C5, 2)[0].component) is tuple


def test_graph_is_n_and_masks():
    assert tuple(C5) == (C5.n, C5.masks) == (5, (18, 5, 10, 20, 9))
