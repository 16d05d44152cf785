"""The package's records are immutable tuples of their fields."""

import pytest

from coverideal.coloring import b_fold_chromatic, fractional_value
from coverideal.correspondence import probe_expansion, verify_correspondence
from coverideal.graphs import family
from coverideal.ideals import cover_ideal, irreducible_decomposition

C5 = family("cycle", 5)

RECORDS = {
    "Graph": C5,
    "Coloring": b_fold_chromatic(C5, 2)[1],
    "FractionalCertificate": fractional_value(C5)[1],
    "MonomialIdeal": cover_ideal(C5),
    "IrreducibleIdeal": irreducible_decomposition(cover_ideal(C5))[0],
    "ComponentCorrespondence": verify_correspondence(C5, 2)[0],
    "ConjectureWitness": probe_expansion(C5, {0, 2}),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_frozen_and_hashes_by_fields(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    rebuilt = type(record)(*record)
    assert rebuilt is not record
    assert rebuilt == record and hash(rebuilt) == hash(record)


def test_graph_is_n_and_masks():
    assert tuple(C5) == (C5.n, C5.masks) == (5, (18, 5, 10, 20, 9))
