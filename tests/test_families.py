import numpy as np
import pytest

from hingesketch import families, sampler

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


def loaded_and_in_memory(name, n, monkeypatch):
    """A frozen sketch of ``n`` values and the sketch its bytes load as.  The load
    runs with the bank generators' constructor broken: it must seed none."""
    fam = families.FAMILIES[name]
    sk = fam.make(0.3, n, 7, 1, W)
    sk.update_many(stream(fam, n, seed=22))
    sk.freeze()

    def no_generator(*args):
        raise AssertionError("a load seeded a sample bank generator")

    monkeypatch.setattr(sampler, "philox_generator", no_generator)
    return sk, fam.cls.from_bytes(sk.to_bytes())


def test_loaded_mult1d_answers_bit_identically(monkeypatch):
    sk, back = loaded_and_in_memory("mult1d", 20_000, monkeypatch)
    level_max = [float(b[-1]) for bank in (sk.E, sk.S) for b in bank.buffers if b.size]
    qs = probe_values(float(max(sk.E.buffers[0][-1], sk.S.buffers[0][-1])), level_max)
    np.testing.assert_array_equal(back.query_many(qs), sk.query_many(qs))
    np.testing.assert_array_equal([back.query(q)[0] for q in qs], [sk.query(q)[0] for q in qs])


def test_loaded_dyn1d_answers_bit_identically(monkeypatch):
    sk, back = loaded_and_in_memory("dyn1d", 12_000, monkeypatch)
    assert sk.interval_count() >= 2
    bounds = [itv.boundary for itv in sk.intervals if np.isfinite(itv.boundary)]
    qs = probe_values(sk.anchor, bounds)
    np.testing.assert_array_equal(back.query_many(qs), sk.query_many(qs))
    np.testing.assert_array_equal([back.query(q) for q in qs], [sk.query(q) for q in qs])


def probe_values(anchor, edges):
    """Over 500 values: below the anchor, on and next to it and every edge, and far above."""
    rng = np.random.default_rng(23)
    on = np.array([anchor, *edges])
    qs = np.concatenate([rng.uniform(0.0, anchor, 250), rng.uniform(anchor, W, 250),
                         on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
                         [-1.0, 0.0, 2.0 * W, 1e9, 1e15]])
    assert qs.size >= 500
    return qs


@pytest.mark.parametrize("name", list(families.FAMILIES))
def test_non_finite_queries_rejected(name):
    fam = families.FAMILIES[name]
    sk = fam.make(0.3, 2000, 7, 1, W)
    sk.update_many(stream(fam, 2000, seed=24))
    sk.freeze()
    for bad in (np.inf, np.nan, -np.inf):
        qs = [[1.0, 0.0, 0.5], [1.0, 0.0, bad], [bad, 0.0, 0.5]] if fam.dim == 2 else [0.5, bad]
        with pytest.raises(ValueError, match="must be finite"):
            sk.query_many(np.asarray(qs))
