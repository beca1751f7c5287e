"""The closed form of the transferred differential against the series.

hopfext.transfer._label_terms lists the terms (target label, slot-weight
sequence, scalar) of the differential out of a label in closed form; here
each list is compared, term by term, with the perturbation series run
word by word in tests/series_reference.py.  For the reduced presentation
there is one term per source label: with d = T_1, the slot-weight-1
matrix (the r^1 coefficient of eta_R in the reduced normal form), the
differential out of word length s is d for s even and -d^4/4! for s odd.
So the transferred complex alternates d and -d^4/24 along the
coefficient pieces, and H^{s,t} is periodic in (s, t) -> (s + 2, t + 40)
for s >= 1 (b-periodicity).  Where a slot matrix of that term vanishes on
the piece it meets, there is no term at all.
"""

import numpy as np
import pytest

import hopfext.bockstein as bockstein
import hopfext.transfer as transfer
from hopfext.algebroid import AlgebroidSpec
from hopfext.bockstein import FiltrationSpec
from hopfext.transfer import integral_structure

import series_reference as series

RED = AlgebroidSpec("reduced")
FULL = AlgebroidSpec("full")
LEVELS = (None, 0, 1, 2, 3, 4)
MODS = (5, 625, 5 ** 9)
# -1/4! mod m
ODD_SCALAR = {5: 1, 625: 26, 5 ** 9: 406901}


def _check_closed_form(spec, mod, s_max, t_max):
    """Every label's closed-form terms equal the series' nonzero scalars;
    returns the terms of the reduced presentation's labels."""
    seen = []
    for s in range(s_max + 1):
        for t in range(8, t_max + 1, 8):
            for label, d in transfer._label_runs(spec, s, t):
                terms = list(transfer._label_terms(spec, label, d, mod))
                got = {(target, seq): c for target, seq, c in terms}
                want = {key: c for key, c in series.word_scalars(
                    spec, label, d, mod).items() if c}
                assert len(got) == len(terms) and got == want, (s, t, label)
                seen.append((s, terms))
    return seen


@pytest.mark.parametrize("mod", MODS)
@pytest.mark.parametrize("level", LEVELS)
def test_reduced_scalars_closed_form(level, mod):
    # one term per source label: 1 on T_1 for s even, -1/24 on
    # T_1 T_1 T_1 T_1 for s odd
    assert ODD_SCALAR[mod] == -pow(24, -1, mod) % mod
    spec = AlgebroidSpec("reduced", level)
    for s, terms in _check_closed_form(spec, mod, 7, 200):
        want = ((1, 1, 1, 1), ODD_SCALAR[mod]) if s % 2 else ((1,), 1)
        assert [(seq, c) for _, seq, c in terms] in ([], [want]), s


@pytest.mark.parametrize("mod", (5, 625))
@pytest.mark.parametrize("level", LEVELS)
def test_full_scalars_closed_form(level, mod):
    # the z letters prepended with scalar 1, and the bounded term of a
    # label with no z letter
    _check_closed_form(AlgebroidSpec("full", level), mod, 6, 240)


def _odd_scalar_flipped(real):
    def planted(spec, label, d, mod):
        for target, seq, c in real(spec, label, d, mod):
            yield target, seq, (-c if len(seq) == 4 else c) % mod
    return planted


def _z_prepends_dropped(real):
    def planted(spec, label, d, mod):
        for target, seq, c in real(spec, label, d, mod):
            if seq[0] % 5:
                yield target, seq, c
    return planted


@pytest.mark.parametrize("spec,plant", [(RED, _odd_scalar_flipped),
                                        (FULL, _z_prepends_dropped)],
                         ids=["odd-scalar-flipped", "z-prepends-dropped"])
def test_closed_form_check_catches_a_plant(spec, plant, monkeypatch):
    # +1/24 as the odd scalar, or no z letter prepended, is not the series
    monkeypatch.setattr(transfer, "_label_terms",
                        plant(transfer._label_terms))
    with pytest.raises(AssertionError):
        _check_closed_form(spec, 625, 2, 80)


@pytest.mark.parametrize("s", range(1, 5))
def test_b_periodicity(s, monkeypatch):
    # the cells (s, t) and (s + 2, t + 40) share both differentials; with
    # the periodicity key switched off each side is eliminated on its own
    monkeypatch.setattr(transfer, "periodic_cell", lambda spec, *cell: cell)
    transfer.differential_valuations.cache_clear()
    try:
        for t in range(0, 201, 8):
            assert integral_structure(RED, s, t) == \
                integral_structure(RED, s + 2, t + 40), t
    finally:
        transfer.differential_valuations.cache_clear()


def _same_array(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("level", LEVELS)
def test_transferred_cells_b_periodic(level):
    # the fact periodic_cell rests on, read on fresh builds: in the reduced
    # presentation the transferred matrix at (s + 2, t + 40), and the
    # filtered cell bockstein ranks over this level, equal those at (s, t)
    # in shape, dtype and values, and periodic_cell maps both to one cell
    spec = AlgebroidSpec("reduced", level)
    fspec = next((f for f in map(FiltrationSpec, range(5)) if f.base == spec),
                 None)
    for s, t in [(s, t) for s in range(5) for t in range(0, 201, 8)]:
        for mod in (5, 625):
            assert _same_array(
                transfer.transferred_matrix(spec, s, t, mod),
                transfer.transferred_matrix(spec, s + 2, t + 40, mod)), \
                (s, t, mod)
        assert transfer.periodic_cell(spec, s + 2, t + 40) == \
            transfer.periodic_cell(spec, s, t)
        if fspec is not None:
            here = bockstein._filtered_cell.__wrapped__(fspec, s, t)
            there = bockstein._filtered_cell.__wrapped__(fspec, s + 2, t + 40)
            assert all(map(_same_array, here, there)), (s, t)
    assert transfer.periodic_cell(spec, 6, 240) == (0, 120)
    assert transfer.periodic_cell(spec, 5, 48) == (3, 8)


def test_full_cells_are_not_periodic():
    # z letters make new labels at s + 2, so the full presentation keeps
    # every cell
    assert transfer.periodic_cell(FULL, 4, 160) == (4, 160)
    assert transfer.transferred_matrix(FULL, 2, 80, 5).shape != \
        transfer.transferred_matrix(FULL, 0, 40, 5).shape
