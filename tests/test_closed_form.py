"""The reduced presentation's transferred complex in closed form.

For the reduced presentation the word-side scalars of the transfer have
one term per source label: with d = T_1, the slot-weight-1 matrix (the r^1
coefficient of eta_R in the reduced normal form), the differential out of
word length s is d for s even and -d^4/4! for s odd.  So the transferred
complex alternates d and -d^4/24 along the coefficient pieces, and H^{s,t}
is periodic in (s, t) -> (s + 2, t + 40) for s >= 1 (b-periodicity).
Where a slot matrix of that term vanishes on the piece it meets, there is
no scalar at all.  The closed form lives here only: src/ computes the
scalars by running the series.
"""

import pytest

import hopfext.transfer as transfer
from hopfext.algebroid import AlgebroidSpec
from hopfext.transfer import integral_structure, small_word_labels

RED = AlgebroidSpec("reduced")
LEVELS = (None, 0, 1, 2, 3, 4)
MODS = (5, 625, 5 ** 9)
# -1/4! mod m
ODD_SCALAR = {5: 1, 625: 26, 5 ** 9: 406901}


def _live(spec, d, seq, mod):
    """Whether every slot matrix of seq is nonzero on the piece it meets."""
    for w in seq:
        if w not in dict(transfer._eta_matrices(spec, d, mod)):
            return False
        d -= 8 * w
    return True


def _check_closed_form(spec, mod, s_max, t_max):
    for s in range(s_max + 1):
        seq, want_c = ((1, 1, 1, 1), ODD_SCALAR[mod]) if s % 2 else ((1,), 1)
        for t in range(8, t_max + 1, 8):
            for label, d in transfer._label_runs(spec, s, t):
                got = {key: c for key, c in
                       transfer._word_scalars(spec, label, d, mod).items() if c}
                if not _live(spec, d, seq, mod):
                    assert not got, (s, t)
                    continue
                n = (t - d) // 8 + sum(seq)
                target, = small_word_labels(spec, s + 1, n)
                assert got == {(target, seq): want_c}, (s, t)


@pytest.mark.parametrize("mod", MODS)
@pytest.mark.parametrize("level", LEVELS)
def test_reduced_scalars_closed_form(level, mod):
    # one nonzero scalar per source label: 1 on T_1 for s even, -1/24 on
    # T_1 T_1 T_1 T_1 for s odd
    assert ODD_SCALAR[mod] == -pow(24, -1, mod) % mod
    _check_closed_form(AlgebroidSpec("reduced", level), mod, 7, 200)


def test_closed_form_catches_doubled_homotopy(monkeypatch):
    # the odd scalar passes through h three times, so doubling h scales it
    # by 8: -8/24 = -1/3, which is 208 mod 625
    real = transfer._h_word

    def doubled(word, mod):
        return tuple((w, 2 * c % mod) for w, c in real(word, mod))

    monkeypatch.setattr(transfer, "_h_word", doubled)
    (label, d), = transfer._label_runs(RED, 1, 80)
    scalars = {key: c for key, c in
               transfer._word_scalars(RED, label, d, 625).items() if c}
    assert list(scalars.values()) == [208]
    with pytest.raises(AssertionError):
        _check_closed_form(RED, 625, 1, 80)


@pytest.mark.parametrize("s", range(1, 5))
def test_b_periodicity(s):
    # the cells (s, t) and (s + 2, t + 40) share both differentials
    for t in range(0, 201, 8):
        assert integral_structure(RED, s, t) == \
            integral_structure(RED, s + 2, t + 40), t
