"""Golden values: replay bytes, query answers and optimize results of every family.

The values below were recorded from fixed seeds and streams.  Any change to
them is a change of behaviour: a sketch that replays different bytes, a
query that answers differently, or an optimizer that returns a different
candidate.  Builds and queries go through the CLI (``build`` writes
``to_bytes()``, ``query`` takes the median over the ``--sketch`` replicas),
the optimizer through ``optimize_via_sketch``.  Batch answers
(``query_many`` of the sketches, ``estimate_bulk`` of the d=2 estimator) are
pinned on sketches built in-process, on inputs that reach every branch of the
query code.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from hingesketch import cli
from hingesketch import add2d
from hingesketch.add2d import QuadTree2D, additive_quadtree
from hingesketch.core import LabeledPoint, SketchParams
from hingesketch.dyn1d import DynSketch1D
from hingesketch.gen import gen_uniform
from hingesketch.mult1d import MultStream1D
from hingesketch.optimize import GridSpec, build_estimator, grid_points, optimize_via_sketch
from hingesketch.sampler import philox_generator

Q_UNIVERSE = [0.5, 1.0, 3.7, 17.25, 40.0, 55.5, 63.9, 80.0]
Q_UNIT = [-1.5, -0.9, -0.2, 0.0, 0.33, 0.95, 1.0, 1.4]
HALFPLANES = [("0.6,0.8", 1.0), ("1,0", 0.75), ("-0.28,0.96", 0.6)]

# name: (algorithm, stream, build flags, replicas)
BUILDS = {
    "offline1d": ("offline1d", "universe", ["--epsilon", "0.1"], 1),
    "mult1d": ("mult1d", "universe", ["--epsilon", "0.5", "--W", "64", "--seed", "5"], 1),
    "mult1d_x3": ("mult1d", "universe", ["--epsilon", "0.5", "--W", "64", "--seed", "9"], 3),
    "dyn1d": ("dyn1d", "universe", ["--epsilon", "0.3", "--W", "64", "--seed", "6"], 1),
    "add1d": ("add1d", "unit", ["--epsilon", "0.05"], 1),
    "add1d_p2": ("add1d", "unit", ["--epsilon", "0.1", "--p", "2"], 1),
    "add2d": ("add2d", "disk", ["--epsilon", "0.1", "--seed", "7"], 1),
    "add2d_x3": ("add2d", "disk", ["--epsilon", "0.2", "--seed", "8"], 3),
}

# name: (family, d, n, lam, epsilon, k)
OPTIMIZE = {
    "add1d": ("add1d", 1, 300, 0.5, 0.25, 1),
    "offline1d": ("offline1d", 1, 300, 0.5, 0.25, 1),
    "mult1d": ("mult1d", 1, 300, 0.5, 0.4, 1),
    "dyn1d": ("dyn1d", 1, 300, 0.5, 0.25, 3),
    "add2d": ("add2d", 2, 300, 2.0, 0.5, 3),
    # the benchmark's scale: about 14k candidates, most scan calls over many blocks
    "add2d_14k": ("add2d", 2, 2000, 0.2, 0.6, 1),
}

BENCH_ARGV = ["bench", "--algorithms", "offline1d,mult1d,dyn1d,add1d,add2d,pegasos",
              "--epsilons", "0.2", "--n", "600", "--seeds", "1"]

GOLDEN = {'build': {'offline1d': (['60b544629d7dc29329aca72d0cf152799f51d2f0f43f8fcbc03bc4be4d7751af'],
                         [0.0,
                          0.0,
                          229.29319437087236,
                          7946.658227510849,
                          46764.750071723865,
                          92718.22963003529,
                          124041.96460795081,
                          188313.1646079508]),
           'mult1d': (['f0b9a05bbb59a67c97caa8b76f23f6645a393dcd496b35235db0cf78be0706c4'],
                      [0.0,
                       0.0,
                       229.59897092501677,
                       8110.898136055988,
                       49827.87799485336,
                       87956.75915126759,
                       138492.04799779283,
                       190554.17503813482]),
           'mult1d_x3': (['d60860701d935cd63ac0c397b22453cd9839f46a8692fa3f6a07f926e8d0b114',
                          '1b90f37719ec5f443f925ad4b8e7efaa124c3e5ca9198593ef78ff84cd819e7b',
                          '87be0af18fc516ec1a959311d7ae2e67592cf67f0f9e06ff9b5b775b41b08259'],
                         [0.0,
                          0.0,
                          229.59897092501677,
                          7926.270518816944,
                          46653.828634561665,
                          92776.3207354178,
                          136906.5395019932,
                          199833.25241529508]),
           'dyn1d': (['69999099316b7ac26dc5dbb51a945a408da149e3d08db07dc637202b3c39d8f0'],
                     [0.0,
                      0.0,
                      229.59897092501677,
                      5608.497296705852,
                      40831.44566688253,
                      86494.66823772514,
                      107717.07263597015,
                      148393.3477326064]),
           'add1d': (['4335d1d1d3520b3851c5575bcf5c46d19c9db1ea3e68bd78e5bd91c618a8bef1'],
                     [0.0,
                      0.0023346892607310076,
                      0.1636330934380358,
                      0.25468283677164444,
                      0.4490199330638429,
                      0.9567922395110262,
                      1.0061239527456112,
                      1.406123952745611]),
           'add1d_p2': (['34998be12ac911ff979e32ae3398ab9d761470baa2a20f1bac5136ff77ea58f3'],
                        [0.0,
                         0.0,
                         0.08824248906980094,
                         0.17135130965573325,
                         0.40042487744443894,
                         1.251627659564261,
                         1.3510443401479761,
                         2.315943502344465]),
           'add2d': (['453ce05bf2d84f81c935133b2dc9de57625f5340b32b8678642e2adc495dd3b0'],
                     [0.04561445367751207, 0.07734767696023101, 0.13035572721221633]),
           'add2d_x3': (['06ea905effd5b8a016cffa59b9b4cf4bd1347c5027cc8c85831964dd37c61c1c',
                         'd1a71dbfd82ca983d1028cce19cec74e94ba7bd71d8b2cdde63e06fabb5d9a59',
                         'ab97f55f42776e6769cc047ea543b9f3ff52256aab629ef08859dc560a01c12e'],
                        [0.04408736410261362,
                         0.09081840236984984,
                         0.11475579351746802])},
 'optimize': {'add1d': ([0.625], -0.25, 0.8996581130998272, 797),
              'offline1d': ([0.5], -0.25, 0.8800163823011332, 797),
              'mult1d': ([0.6000000000000001], -0.2, 0.9002551219091677, 317),
              'dyn1d': ([0.625], -0.25, 0.8996581130998274, 797),
              'add2d': ([0.17677669529663687, 0.17677669529663687],
                        0.0,
                        0.9836353387397022,
                        751),
              'add2d_14k': ([0.8485281374238569, 0.42426406871192845],
                            -0.42426406871192845,
                            0.8196476348137476,
                            13949)},
 'bench': ['algorithm,epsilon,p,space_words,mean_rel_err,p95_err,max_err,success_rate',
           'offline1d,0.2,1,96,0.00809607,0.0254495,0.0321698,1.0000',
           'mult1d,0.2,1,2457,6.6618e-16,1.52131e-15,1.74097e-15,1.0000',
           'dyn1d,0.2,1,608,6.6618e-16,1.52131e-15,1.74097e-15,1.0000',
           'add1d,0.2,1,48,0.00242881,0.00623877,0.00759201,1.0000',
           'add2d,0.2,1,160,0.00311049,0.0216437,0.0317949,1.0000',
           'pegasos,0.2,1,108,0.0182474,0.0182474,0.0182474,1.0000'],
 'batch': {'add2d_grid_blocks': [0.2467607546371076,
                                 0.20624338144147839,
                                 0.17036204494956425,
                                 0.13887944604693472,
                                 0.1115707267703355,
                                 0.08812544849177914,
                                 0.06831450370399252,
                                 0.0518056105412245,
                                 0.038294583500236255,
                                 0.02747250829312648,
                                 0.018986116109985504,
                                 0.012534605383090001,
                                 0.00780535811584183,
                                 0.0045206176108492585,
                                 0.0023670610980193107,
                                 0.0010572407277891769,
                                 0.8090325755020614,
                                 0.7165964959505428,
                                 0.6302579773746358,
                                 0.550017019774337,
                                 0.4758736231496502,
                                 0.4078277875005712,
                                 0.3458795128271031,
                                 0.2900231377455011,
                                 0.24024538873853538,
                                 0.19635678800393433,
                                 0.15810968106126705,
                                 0.12519010133260372,
                                 0.09722950774440725,
                                 0.07386354792412124,
                                 0.054652990556324034,
                                 0.03925259237357562,
                                 0.02716043681391409,
                                 0.01795213387546569,
                                 0.01118543443295583,
                                 0.006469294536018403,
                                 0.003369325442238533,
                                 0.0015237103468126584,
                                 0.0005208895972374091,
                                 1.1296254403648918,
                                 1.0052745364178446,
                                 0.8886159401631044,
                                 0.7796496516006728,
                                 0.6783756707305473,
                                 0.5847939975527298,
                                 0.49890463206722113,
                                 0.42070757427401934,
                                 0.35020282417312515,
                                 0.28738495874484576,
                                 0.2322285698918142,
                                 0.18442485749315954,
                                 0.14364901477899003,
                                 0.10941661428593959,
                                 0.08116064522552423,
                                 0.05836148580939713,
                                 0.04046718977449098,
                                 0.02677883733586048,
                                 0.016728569905928456,
                                 0.009658920571148859,
                                 0.005038723843486469,
                                 0.0022732983862881026,
                                 0.0007921148104184299,
                                 0.0001643989647745466,
                                 2.0319876864636758e-05],
           'add2d_p1': [0.3338712271403005,
                        0.10627276756474498,
                        0.2722617255164996,
                        0.3338712271403005,
                        0.10350508742655398,
                        0.06932465517994277,
                        0.02157100822453355,
                        0.0,
                        2.302327375103465,
                        0.11647906690877455],
           'add2d_p2': [0.13822640110802875,
                        0.031630528835043935,
                        0.1233809064523756,
                        0.13822640110802875,
                        0.03036731857113485,
                        0.020136453594608326,
                        0.003299087347255257,
                        0.0,
                        5.361700797386559,
                        0.03533906229260355],
           'dyn1d_anchor_mass': [0.0,
                                 0.0,
                                 3054.9022341166733,
                                 33879.75289540786,
                                 91620.00430509695,
                                 130959.51625455548,
                                 152278.99369813298,
                                 193141.32546498987,
                                 85.43705380296407,
                                 427.18694706962884,
                                 11444.391186686295,
                                 243901.9860449364,
                                 8.494706632933724,
                                 85.2166565695334,
                                 236.26527807119703,
                                 1890.09976127049,
                                 6528.144276470495,
                                 35433.99444531649],
           'dyn1d_explicit': [0.0,
                              0.0,
                              9.393188190909434,
                              339.6315030307538,
                              2221.092282163941,
                              4554.7808350011655,
                              6161.266162126088,
                              9381.266162126089,
                              13381.266162126089],
           'dyn1d_intervals': [0.0,
                               0.0,
                               1935.5165565721045,
                               21341.2325332197,
                               92208.45359346675,
                               135312.96061999403,
                               158672.8224924346,
                               203445.8910812791,
                               42.87851481804198,
                               430.8531342219226,
                               10779.752722347515,
                               259064.6098251852,
                               1.3559081833574282,
                               42.719543431245725,
                               193.00692507671852,
                               1130.7570081320996,
                               5401.694543371123,
                               30645.151539670587],
           'estimate_bulk_2d': [1.1485211974318743,
                                1.0910862449606802,
                                1.1577293225205956,
                                1.2158753223873047,
                                1.012978011013103,
                                1.0742605987159373,
                                1.1355431864187713,
                                0.937482846749122,
                                0.9907918749112787,
                                1.0474435917635982,
                                1.1669374476093177,
                                1.0221861361018247,
                                1.0834687238046585,
                                1.1447513115074928,
                                0.8774348245943318,
                                0.9387174122971658,
                                1.0,
                                1.061282587702834,
                                1.1225651754056682,
                                0.8552486884925072,
                                0.9165312761953414,
                                0.9778138638981756,
                                0.8330625523906826,
                                0.936336740903688,
                                1.0092081250887213,
                                1.094670606912274,
                                0.8644568135812288,
                                0.9257394012840631,
                                0.9870219889868971,
                                0.7743341697304854,
                                0.8422706774794041,
                                0.8963421478771684,
                                0.8514788025681257],
           'mult1d_boundary_mass': [0.0,
                                    286.436513772533,
                                    4215.717122595997,
                                    4365.717122595997,
                                    6563.717122595997,
                                    62832.51712259599,
                                    206969.97405997707,
                                    207438.37405997707,
                                    390535.0077396533,
                                    50246935.007739656]}}


def _write_streams(tmp_path):
    rng = np.random.default_rng(20200707)
    universe = rng.uniform(1.0, 64.0, 4000)
    unit = rng.uniform(-1.0, 1.0, 4000)
    disk = np.array([p.x for p in gen_uniform(3000, 2, seed=11)])
    paths = {}
    for name, rows in (("universe", universe[:, None]), ("unit", unit[:, None]),
                       ("disk", disk)):
        path = tmp_path / f"{name}.csv"
        path.write_text("".join("1," + ",".join(repr(v) for v in row) + "\n"
                                for row in rows.tolist()))
        paths[name] = str(path)
    return paths


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert code == 0, err.getvalue()
    return out.getvalue()


def _queries(stream):
    if stream == "disk":
        return [[f"--theta={theta}", f"--b={b}"] for theta, b in HALFPLANES]
    qs = Q_UNIVERSE if stream == "universe" else Q_UNIT
    return [[f"--q={q}" for q in qs]]


def build_and_query(tmp_path):
    """sha256 of every written sketch file and the answers of ``query``."""
    streams = _write_streams(tmp_path)
    got = {}
    for name, (algorithm, stream, flags, replicas) in BUILDS.items():
        out = str(tmp_path / name)
        _cli("build", "--algorithm", algorithm, "--input", streams[stream],
             "--max-norm", "100", "--replicas", str(replicas), "--out", out, *flags)
        files = [out] if replicas == 1 else [f"{out}.{i}" for i in range(replicas)]
        shas = [hashlib.sha256(open(f, "rb").read()).hexdigest() for f in files]
        sketch_args = sum((["--sketch", f] for f in files), [])
        answers = []
        for query in _queries(stream):
            text = _cli("query", *sketch_args, *query)
            answers.extend(json.loads(line)["estimate"] for line in text.splitlines())
        got[name] = (shas, answers)
    return got


def _separable_with_noise(n, d):
    """Points labelled by the side of x_1 + ... + x_d = 0.2, 15% of labels flipped."""
    rng = np.random.default_rng(31 + d)
    pts = [p.x for p in gen_uniform(n, d, seed=17, low=-1.0, high=1.0)]
    flip = rng.uniform(size=n) < 0.15
    return [LabeledPoint(x, (1 if sum(x) > 0.2 else -1) * (-1 if f else 1))
            for x, f in zip(pts, flip.tolist())]


def optimize_results():
    got = {}
    for name, (family, d, n, lam, eps, k) in OPTIMIZE.items():
        res = optimize_via_sketch(_separable_with_noise(n, d), lam, eps, family=family,
                                  k=k, seed=3)
        got[name] = ([float(v) for v in res.theta], res.b, res.value, res.grid_size)
    return got


def bench_columns():
    """``bench`` rows without the two timing columns."""
    text = _cli(*BENCH_ARGV)
    return [",".join(row.split(",")[:-2]) for row in text.strip().splitlines()]


def _mult1d_sketch(xs, eps, seed):
    sk = MultStream1D(SketchParams(eps, 64, xs.size, seed=seed))
    sk.update_many(xs)
    sk.freeze()
    return sk


def _dyn1d_sketch(xs, eps, seed):
    sk = DynSketch1D(SketchParams(eps, 64, xs.size, seed=seed))
    sk.update_many(xs)
    sk.freeze()
    return sk


def batch_sketches():
    """name: (sketch or estimator, query batch)."""
    rng = np.random.default_rng(20201020)
    # 3000 copies of 20.0 overflow both level-0 banks (576 and 768 values), so
    # the boundary-mass term is live for every q > 20
    dup = np.concatenate([rng.uniform(1.0, 10.0, 300), np.full(3000, 20.0),
                          rng.uniform(20.0, 64.0, 700)])
    rng.shuffle(dup)
    mult = _mult1d_sketch(dup, 0.5, 5)
    # 200 values stay below the explicit capacity (246 at eps=0.3)
    explicit = _dyn1d_sketch(rng.uniform(1.0, 64.0, 200), 0.3, 6)
    skewed = 1.0 + 63.0 * rng.uniform(0.0, 1.0, 5000) ** 2
    intervals = _dyn1d_sketch(skewed, 0.5, 6)
    # 400 copies of 1.0 fill the explicit points: the hidden anchor mass is live
    anchored = _dyn1d_sketch(np.concatenate([np.full(400, 1.0), skewed]), 0.5, 7)
    edges = [intervals.anchor] + [itv.boundary for itv in intervals.intervals[:-1]]
    q_dyn = Q_UNIVERSE + [1.2, 2.0, 10.0, 100.0] + edges
    disk = (np.array([p.x for p in gen_uniform(3000, 2, seed=11, low=-1.0)]) + 1.0) / 2.0
    trees = {}
    for p, seed in ((1, 7), (2, 8)):
        trees[p] = additive_quadtree(0.1, len(disk), p=p, seed=seed)
        trees[p].update_many(disk)
    # unit rows, rows with |theta| < 1 (renormalized with b), empty and full halfplanes
    rows = np.array([[0.6, 0.8, 1.0], [1.0, 0.0, 0.5], [-0.28, 0.96, 0.6],
                     [0.3, 0.4, 0.5], [0.0, -0.5, -0.25], [0.05, 0.0, 0.02],
                     [-0.6, -0.8, -0.9], [0.6, 0.8, -2.0], [0.6, 0.8, 3.0],
                     [0.7071067811865476, 0.7071067811865476, 0.7]])
    # 583 nonempty nodes, so a scan block holds 14 rows; 64 rows of the lambda 0.2
    # grid as _Class2D asks them come in runs of 20 that share a direction
    fine = QuadTree2D(0.004, len(disk), p=2, seed=8)
    fine.update_many(disk)
    tx, ty, b = grid_points(GridSpec(lam=0.2, epsilon=0.6, d=2))[6000:6064].T
    norm = np.hypot(tx, ty)
    grid_rows = np.stack([tx / norm, ty / norm, (1.0 - b + tx + ty) / (2.0 * norm)], axis=1)
    estimator = build_estimator(_separable_with_noise(300, 2), "add2d", 0.5, seed=3)
    # 33 candidates, 5 of them with theta = 0
    grid = grid_points(GridSpec(lam=4.0, epsilon=1.0, d=2))
    return {
        "mult1d_boundary_mass": (mult, [0.5, 5.0, 19.5, 20.0, 20.5, 33.3, 63.9, 64.0,
                                        100.0, 1e4]),
        "dyn1d_explicit": (explicit, Q_UNIVERSE + [100.0]),
        "dyn1d_intervals": (intervals, q_dyn),
        "dyn1d_anchor_mass": (anchored, q_dyn),
        "add2d_p1": (trees[1], rows),
        "add2d_p2": (trees[2], rows),
        "add2d_grid_blocks": (fine, grid_rows),
        "estimate_bulk_2d": (estimator, grid),
    }


def batch_answers(sketches):
    return {name: (obj.estimate_bulk(qs) if name.startswith("estimate_bulk")
                   else obj.query_many(np.asarray(qs))).tolist()
            for name, (obj, qs) in sketches.items()}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    return build_and_query(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_replay_bytes_and_answers(built, name):
    shas, answers = built[name]
    want_shas, want_answers = GOLDEN["build"][name]
    assert shas == want_shas
    assert_array_equal(np.array(answers), np.array(want_answers))


def test_optimize_results():
    got = optimize_results()
    for name, want in GOLDEN["optimize"].items():
        assert got[name] == want, name


def test_bench_columns():
    assert bench_columns() == GOLDEN["bench"]


# The "mult1d" build above as it was written before the bank levels drew their
# survivors by geometric gaps, with one uniform per value and level: its sha256
# and the answers of ``query``.  HSK1 did not change, so the file must load and
# answer as it did.
OLD_DRAWS_MULT1D = ("3c1a4597393338e76c057f9c402feaff8f274b45e29a73d00386c59f0f2ca8b0",
                    [0.0, 0.0, 229.59897092501677, 8320.941958663609, 47007.15378265225,
                     84866.5847758391, 124630.2500872466, 181833.33809859332])


def test_file_of_the_old_draws_loads_and_answers_as_before(tmp_path):
    xs = np.random.default_rng(20200707).uniform(1.0, 64.0, 4000)  # _write_streams' universe
    sk = MultStream1D(SketchParams(0.5, 64, xs.size, seed=5))
    for bank, domain in ((sk.E, "E"), (sk.S, "S")):
        for i in range(bank.num_levels):
            surv = xs if i == 0 else xs[philox_generator(5, domain, i).random(xs.size) < 2.0**-i]
            bank.buffers[i] = np.sort(surv, kind="stable")[: bank.capacity]
            bank.survived[i] = surv.size
    sk.count = xs.size
    path = tmp_path / "old.hsk1"
    path.write_bytes(sk.to_bytes())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == OLD_DRAWS_MULT1D[0]
    text = _cli("query", "--sketch", str(path), *_queries("universe")[0])
    answers = [json.loads(line)["estimate"] for line in text.splitlines()]
    assert_array_equal(np.array(answers), np.array(OLD_DRAWS_MULT1D[1]))


@pytest.fixture(scope="module")
def batches():
    return batch_sketches()


def test_batch_inputs_reach_their_branches(batches):
    mult, _ = batches["mult1d_boundary_mass"]
    assert mult.query(20.5)[1].boundary_mass > 0
    assert not batches["dyn1d_explicit"][0].intervals
    assert batches["dyn1d_intervals"][0].interval_count() >= 5
    anchored = batches["dyn1d_anchor_mass"][0]
    assert anchored.anchor == 1.0 and anchored.explicit_capacity < 400 and anchored.intervals
    grid = batches["estimate_bulk_2d"][1]
    assert ((grid[:, 0] == 0) & (grid[:, 1] == 0)).sum() == 5
    fine, rows = batches["add2d_grid_blocks"]
    step = add2d._BLOCK_VALUES // fine._nodes().shape[1]
    assert len(rows) >= 4 * step
    starts = np.flatnonzero((rows[1:, :2] != rows[:-1, :2]).any(axis=1)) + 1
    assert np.diff(starts).min() > step  # every run in the middle crosses a block edge


@pytest.mark.parametrize("name", sorted(GOLDEN["batch"]))
def test_batch_answers(batches, name):
    got = batch_answers({name: batches[name]})[name]
    assert_array_equal(np.array(got), np.array(GOLDEN["batch"][name]))
