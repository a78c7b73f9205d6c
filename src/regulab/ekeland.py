"""Constructive variational principle on finite point sets.

Given a lower-bounded function f on a finite set and a starting point x with
``f(x) < inf f + eps``, the search walks to a point xhat that (i) stays within
distance lam of x, (ii) does not increase f, and (iii) globally minimizes the
perturbed function ``f(.) + (eps/lam) d(., xhat)``.  On a finite set the
selection loop terminates and all three conclusions are verified exhaustively
after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .spaces import as_point

# the slack of the after-the-fact checks of the three conclusions
_VERIFY_TOL = 1e-12


@dataclass
class EvpResult:
    xhat: np.ndarray
    within_lam: bool
    no_increase: bool
    global_perturbed_min: bool
    trace: list = field(default_factory=list)

    @property
    def all_conclusions(self) -> bool:
        return self.within_lam and self.no_increase and self.global_perturbed_min


def evp_search(f, points, x, eps: float, lam: float) -> EvpResult:
    """Run the improving-selection search and verify its conclusions.

    ``f`` maps points to extended reals; ``points`` is the finite ground set.
    Each step moves to the minimizer of ``f(u) + (eps/lam) d(u, current)``
    provided it strictly improves that value, ties broken lexicographically;
    f strictly decreases along the recorded trace.
    """
    if not eps > 0 or not lam > 0:
        raise InputError("eps and lam must be positive")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x = as_point(x)
    vals = np.array([float(f(u)) for u in pts])
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        raise InputError("f is nowhere finite on the ground set")
    fx = float(f(x))
    if not fx < np.min(finite) + eps:
        raise InputError("starting value must be within eps of the infimum")

    rate = eps / lam
    cur = x
    fcur = fx
    trace = [cur.copy()]
    # lexicographic order for deterministic tie-breaking
    order = np.lexsort(pts.T[::-1])
    while True:
        d = np.linalg.norm(pts - cur[None, :], axis=1)
        perturbed = vals + rate * d
        best, best_i = fcur, None
        for i in order:
            if perturbed[i] < best - 1e-15:
                best, best_i = perturbed[i], i
        if best_i is None:
            break
        cur = pts[best_i].copy()
        fcur = vals[best_i]
        trace.append(cur)

    d_all = np.linalg.norm(pts - cur[None, :], axis=1)
    within = bool(np.linalg.norm(cur - x) < lam + _VERIFY_TOL)
    no_inc = bool(fcur <= fx + _VERIFY_TOL)
    global_min = bool(np.all(vals + rate * d_all >= fcur - _VERIFY_TOL))
    return EvpResult(xhat=cur, within_lam=within, no_increase=no_inc,
                     global_perturbed_min=global_min, trace=trace)
