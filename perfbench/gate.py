"""Correctness gate: every CLI command the benchmark times is one operation.

An operation fails when the command exits nonzero or writes a JSON error
line, when an answer is non-finite, when a deterministic guarantee is broken
(the ``offline1d`` sandwich, ``add1d`` additive error) or when an ``optimize``
result misses the criterion-6 rule.  Misses of the randomized point
estimates (mult1d, dyn1d, add2d) are not failures: those estimators miss with
constant probability, so they only feed the accuracy counters.

All checks run outside the timed region.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from hingesketch import dyn1d, mult1d
from hingesketch.core import distance_sums_1d, strong_convexity_radius

KAPPA_OPT = 4.0  # criterion 6: F-gap <= kappa*eps, distance within the strong-convexity radius
# Relative-error acceptance of the randomized d=1 estimators, scaled by epsilon.
KAPPA_REL = {"mult1d": mult1d.KAPPA, "dyn1d": dyn1d.KAPPA_QUERY}
SLACK = 1e-9  # float slack on the deterministic bounds, relative to the exact value


def command_problems(rc: int, stderr: str) -> list[str]:
    out = [] if rc == 0 else [f"exit code {rc}"]
    for line in stderr.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if isinstance(rec, dict) and "error" in rec:
            out.append(f"error line: {line.strip()}")
    return out


def json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def sandwich_problems(est: np.ndarray, exact: np.ndarray, eps: float) -> list[str]:
    """offline1d: T <= exact <= (1+eps) T for every query."""
    slack = SLACK * np.maximum(1.0, np.abs(exact))
    bad = (est > exact + slack) | (exact > (1.0 + eps) * est + slack)
    return [f"sandwich broken at {int(bad.sum())} of {bad.size} queries"] if bad.any() else []


def additive_problems(est: np.ndarray, exact: np.ndarray, eps: float) -> list[str]:
    """add1d: |estimate - exact| <= eps on the normalized mean."""
    err = np.abs(est - exact)
    bad = err > eps * (1.0 + SLACK)
    return [f"additive error {err.max():.4g} > {eps}"] if bad.any() else []


def criterion6_problems(f_hat: float, f_star: float, dist: float, eps: float,
                        lam: float) -> list[str]:
    """Criterion 6 with kappa = KAPPA_OPT.

    The objective at w = 0 is exactly 1, so the F-gap half cannot fail where
    KAPPA_OPT * eps >= 1 - F*: of the benchmark's optimize commands it is live
    only for add1d and dyn1d on opthard (eps = 0.1, F* = 0.42).
    """
    out = []
    if f_hat - f_star > KAPPA_OPT * eps:
        out.append(f"F-gap {f_hat - f_star:.4g} > {KAPPA_OPT * eps:.4g}")
    radius = strong_convexity_radius(KAPPA_OPT * eps, lam)
    if dist > radius:
        out.append(f"distance {dist:.4g} > {radius:.4g}")
    return out


@dataclass
class Accuracy:
    """Point-estimate accuracy of one family: success count and worst error."""

    hits: int = 0
    total: int = 0
    max_err: float = 0.0

    def add(self, err: np.ndarray, ok: np.ndarray) -> None:
        self.hits += int(np.count_nonzero(ok))
        self.total += int(ok.size)
        if err.size:
            self.max_err = max(self.max_err, float(np.max(err)))

    @property
    def success_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)

    def record(self, op: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append({"op": op, "problems": problems})
        return not problems

    def acc(self, family: str) -> Accuracy:
        return self.accuracy.setdefault(family, Accuracy())

    # -- per-command checks ------------------------------------------------

    def check_build(self, family: str, rc: int, stdout: str, stderr: str, n: int) -> None:
        problems = command_problems(rc, stderr)
        if not problems:
            recs = json_lines(stdout)
            if not recs or recs[-1].get("points") != n:
                problems.append(f"expected {n} points in {stdout.strip()!r}")
        self.record(f"build {family}", problems)

    def check_query_1d(self, family: str, rc: int, stdout: str, stderr: str,
                       qs: np.ndarray, xs: np.ndarray, eps: float) -> None:
        """``xs`` is the d=1 stream the queried sketches were built from."""
        problems = command_problems(rc, stderr)
        if problems:
            self.record(f"query {family}", problems)
            return
        est = np.array([r["estimate"] for r in json_lines(stdout)], dtype=float)
        if est.shape != qs.shape:
            self.record(f"query {family}", [f"{est.size} answers for {qs.size} queries"])
            return
        if not np.all(np.isfinite(est)):
            self.record(f"query {family}", ["non-finite answer"])
            return
        exact = distance_sums_1d(xs, qs)
        if family == "offline1d":
            problems = sandwich_problems(est, exact, eps)
        elif family == "add1d":
            n = xs.size
            problems = additive_problems(est, exact / n, eps)
            self.acc(family).add(np.abs(est - exact / n), np.abs(est - exact / n) <= eps)
        else:
            err = np.abs(est - exact) / np.where(exact > 0, exact, 1.0)
            err = np.where(exact > 0, err, np.abs(est))
            self.acc(family).add(err, err <= KAPPA_REL[family] * eps)
        self.record(f"query {family}", problems)

    def check_query_2d(self, rc: int, stdout: str, stderr: str, theta, b: float,
                       u: np.ndarray, eps: float) -> None:
        problems = command_problems(rc, stderr)
        if not problems:
            recs = json_lines(stdout)
            est = float(recs[0]["estimate"]) if len(recs) == 1 else math.nan
            if not math.isfinite(est):
                problems.append("non-finite answer")
            else:
                exact = float(np.mean(np.maximum(0.0, b - u @ np.asarray(theta))))
                err = abs(est - exact)
                self.acc("add2d").add(np.array([err]), np.array([err <= eps]))
        self.record("query add2d", problems)

    def check_optimize(self, family: str, rc: int, stdout: str, stderr: str,
                       objective, ref: np.ndarray, lam: float, eps: float) -> dict | None:
        """``objective(w)`` is the exact objective; ``ref`` the reference optimum (theta..., b)."""
        problems = command_problems(rc, stderr)
        rec = None
        if not problems:
            rec = json_lines(stdout)[-1]
            w = np.array(list(rec["theta"]) + [rec["b"]], dtype=float)
            if not (np.all(np.isfinite(w)) and math.isfinite(rec["value"])):
                problems.append("non-finite result")
            else:
                problems = criterion6_problems(objective(w), objective(ref),
                                               float(np.linalg.norm(w - ref)), eps, lam)
        self.record(f"optimize {family}", problems)
        return rec
