"""The sketch families and the one surface they share.

Every family's class implements
  update_many(xs)     insert values (d=1) or an (n, 2) array of points (d=2);
  freeze()            end the stream, queries follow;
  query_many(qs)      answer values q (d=1) or rows (theta_x, theta_y, b) (d=2);
  space_words()       retained words;
  stats()             a dict of the sketch's parts, ``space_words`` among them;
  replica_key()       what replicas of one sketch share: everything but the seed;
  check_invariants()  the invariants its builder keeps that it breaks, [] if none;
  to_bytes(), from_bytes(data): from_bytes rejects a file whose sketch breaks one.
``FAMILIES`` maps each family's name to its class, point dimension and
constructor, so callers look a family up here instead of naming its class;
each class owns its file magic, ``MAGIC``.  Adding a family means one module
plus one entry in ``FAMILIES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import add1d, add2d, dyn1d, mult1d
from .core import SketchParams


@dataclass(frozen=True)
class Family:
    name: str
    cls: type
    dim: int
    # (epsilon, n_hint, seed, p, W) -> an empty sketch
    make: Callable[[float, int, int, int, int], object]
    # answers the mean over the stream, not the sum
    normalized: bool = False
    # answers are within relative error kappa*epsilon (additive epsilon if normalized)
    kappa: float = 1.0


FAMILIES = {f.name: f for f in (
    Family("offline1d", mult1d.OfflineSketch1D, 1,
           lambda eps, n, seed, p, W: mult1d.OfflineSketch1D(eps, p)),
    Family("mult1d", mult1d.MultStream1D, 1,
           lambda eps, n, seed, p, W: mult1d.MultStream1D(SketchParams(eps, W, n, p=p, seed=seed)),
           kappa=mult1d.KAPPA),
    Family("dyn1d", dyn1d.DynSketch1D, 1,
           lambda eps, n, seed, p, W: dyn1d.DynSketch1D(SketchParams(eps, W, n, p=p, seed=seed)),
           kappa=dyn1d.KAPPA_QUERY),
    Family("add1d", add1d.Tree1D, 1,
           lambda eps, n, seed, p, W: add1d.additive_tree_1d(eps, n, p=p),
           normalized=True),
    Family("add2d", add2d.QuadTree2D, 2,
           lambda eps, n, seed, p, W: add2d.additive_quadtree(eps, n, p=p, seed=seed),
           normalized=True),
)}
BY_MAGIC = {f.cls.MAGIC: f for f in FAMILIES.values()}
