import dataclasses

import numpy as np
import pytest

from hingesketch import cli, families, sampler
from hingesketch.core import SketchParams
from hingesketch.mult1d import MultStream1D
from hingesketch.serialize import Reader, Writer
from test_dyn1d import bulk_stream

W = 2**16


def stream(fam, n, seed):
    """n values in the family's domain (the unit square; the universe [1, W], or
    [-1, 1] for a normalized family), piled up at one end so that the trees split."""
    u = np.random.default_rng(seed).uniform(0.0, 1.0, (n, fam.dim)) ** 4
    if fam.dim == 2:
        return u
    if not fam.normalized:
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
            assert sk.check_invariants() == []
        sk.freeze()
        got[chunk] = sk.to_bytes()
        assert fam.cls.from_bytes(got[chunk]).check_invariants() == []
    assert got[7] == got[65536] and got[1] == got[65536]


def rho_star_above_rho(problem):
    """The one streaming invariant the dyn1d builder breaks: a fresh split child
    can start below rho*, mostly from eps ~0.7 up."""
    return problem.startswith("interval ") and "rho* " in problem and " > rho " in problem


# n_hint sets the explicit capacity: 1000 points at eps 0.1, under 100 from eps 0.5
@pytest.mark.parametrize("eps,n_hint", [(0.1, 2), (0.5, 6000), (0.7, 6000), (0.9, 6000)])
def test_dyn1d_keeps_its_invariants(eps, n_hint):
    """Every bulk stream of test_dyn1d, in chunks: the sketch keeps its
    invariants after each update_many, frozen, and its files load, written
    unfrozen or frozen.  While streaming, rho* <= rho is the exception."""
    for kind in ["uniform", "sorted", "reversed", "distinct", "three_bands", "point_mass",
                 "signed_zeros"]:
        xs = bulk_stream(kind)
        sk = families.FAMILIES["dyn1d"].make(eps, n_hint, 1, 1, W)
        for i in range(0, len(xs), 1500):
            sk.update_many(xs[i : i + 1500])
            problems = sk.check_invariants()
            assert all(map(rho_star_above_rho, problems)), (kind, problems)
        assert sk.interval_count() >= 2
        unfrozen = sk.to_bytes()
        sk.freeze()
        assert sk.check_invariants() == []
        for data in (unfrozen, sk.to_bytes()):
            assert type(sk).from_bytes(data).check_invariants() == [], kind


def test_each_class_owns_its_file_magic(tmp_path):
    """A family's files start with its class's MAGIC, which names it alone in
    ``BY_MAGIC``; a file with no family's magic is a data error that names it."""
    for fam in families.FAMILIES.values():
        sk = fam.make(0.3, 100, 1, 1, W)
        sk.update_many(stream(fam, 100, seed=23))
        sk.freeze()
        data = sk.to_bytes()
        assert len(fam.cls.MAGIC) == 4 and data[:4] == fam.cls.MAGIC
        assert families.BY_MAGIC[fam.cls.MAGIC] is fam
    assert len(families.BY_MAGIC) == len(families.FAMILIES)
    path = tmp_path / "s"
    path.write_bytes(b"HSKX" + data[4:])
    with pytest.raises(cli.DataError, match="unrecognized sketch magic b'HSKX'"):
        cli.load_sketch(str(path))


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


SEEDS = [0, 1, -1, 2**63 - 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_sketch_params_header_round_trips(seed):
    params = SketchParams(0.3, W=2**12, n_hint=500, C1=9.5, C2=33.0, C=1.5, p=2, seed=seed)
    assert [name for name, _ in SketchParams.HEADER] == [
        f.name for f in dataclasses.fields(SketchParams)]
    w = Writer(MultStream1D.MAGIC)
    w.fields(params, SketchParams.HEADER)
    r = Reader(w.getvalue(), MultStream1D.MAGIC)
    got = r.fields(SketchParams.HEADER)
    r.done()
    # the seed comes back modulo 2^64, as it was written
    assert got == {**dataclasses.asdict(params), "seed": seed % 2**64}
    assert SketchParams(**got).replica_key() == params.replica_key()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["mult1d", "dyn1d"])
def test_seeded_files_reserialize_to_their_bytes(name, seed):
    fam = families.FAMILIES[name]
    xs = stream(fam, 3000, seed=25)
    data = []
    for s in (seed, seed % 2**64):  # a seed and its residue build the same file
        sk = fam.make(0.3, len(xs), s, 1, W)
        sk.update_many(xs)
        sk.freeze()
        data.append(sk.to_bytes())
    assert data[0] == data[1]
    back = fam.cls.from_bytes(data[0])
    assert back.params.seed == seed % 2**64 and back.to_bytes() == data[0]


@pytest.mark.parametrize("name", list(families.FAMILIES))
def test_every_family_reports_stats(name):
    """Every family's ``stats()`` reports the words that ``space_words()``
    counts, built and loaded from its bytes alike."""
    fam = families.FAMILIES[name]
    sk = fam.make(0.2, 3000, 7, 1, W)
    sk.update_many(stream(fam, 3000, seed=27))
    sk.freeze()
    for s in (sk, fam.cls.from_bytes(sk.to_bytes())):
        st = s.stats()
        assert type(st["space_words"]) is int and st["space_words"] == s.space_words() > 0


@pytest.mark.parametrize("name", ["add1d", "add2d"])
def test_tree_stats_count_nodes_leaves_and_depths(name):
    fam = families.FAMILIES[name]
    sk = fam.make(0.2, 3000, 7, 1, W)
    assert sk.stats()["words_per_point"] == 0.0
    sk.update_many(stream(fam, 3000, seed=27))
    nodes = list(sk._walk())
    st = sk.stats()
    assert st == {"nodes": len(nodes), "leaves": sum(n.children is None for n in nodes),
                  "depth_histogram": st["depth_histogram"], "space_words": sk.space_words(),
                  "words_per_point": sk.space_words() / 3000}
    assert st["nodes"] == sk.node_count() > st["leaves"] > 0
    hist = st["depth_histogram"]
    assert list(hist) == sorted(hist) and sum(hist.values()) == st["nodes"]
    assert min(hist) == sk.init_depth and hist[sk.init_depth] == len(sk.roots)
    # the stream piles up at one end, so the trees split below their roots
    assert max(hist) > sk.init_depth


def test_offline_stats_bound_the_stream_length():
    fam = families.FAMILIES["offline1d"]
    assert fam.make(0.2, 1, 0, 1, W).stats() == {"entries": 0, "max_rank": 0, "space_words": 0}
    sk = fam.make(0.2, 3000, 7, 1, W)
    sk.update_many(stream(fam, 3000, seed=27))
    sk.freeze()
    st = sk.stats()
    assert st["entries"] == len(sk) and st["space_words"] == 3 * len(sk)
    assert 3000 / 1.2 <= st["max_rank"] <= 3000
