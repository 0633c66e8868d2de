import numpy as np
import pytest

from hingesketch import families

W = 2**16


def stream(fam, n, seed):
    """n values in the family's domain (the unit square, the universe [1, W] or
    [-1, 1]), piled up at one end so that the trees split."""
    u = np.random.default_rng(seed).uniform(0.0, 1.0, (n, fam.dim)) ** 4
    if fam.dim == 2:
        return u
    if fam.universe:
        return 1.0 + (W - 1) * u[:, 0]
    return 2.0 * u[:, 0] - 1.0


# dyn1d has its own test on a stream built to split, merge and thin (test_dyn1d.py)
@pytest.mark.parametrize("name", ["offline1d", "mult1d", "add1d", "add2d"])
def test_bytes_do_not_depend_on_chunking(name):
    fam = families.FAMILIES[name]
    xs = stream(fam, 20_000, seed=21)
    got = {}
    for chunk in (65536, 7, 1):
        sk = fam.make(0.2, len(xs), 5, 1, W)
        for i in range(0, len(xs), chunk):
            sk.update_many(xs[i : i + chunk])
        sk.freeze()
        got[chunk] = sk.to_bytes()
    assert got[7] == got[65536] and got[1] == got[65536]
