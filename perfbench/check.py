"""Exact checks on every job's answer.

Each answer must match the published tables where they list the instance,
and must satisfy reference-free invariants everywhere: the Euler
characteristic of the f-vector equals that of the Morse counts or of the
Betti vector, each Morse count is at least its Betti number, and nonzero
homology stays inside the vanishing bound (homology.audit).
"""

from __future__ import annotations

import json

from reference import BETTI_GF2, FVECTORS


def load_overrides(path):
    """Reference Betti vectors from a JSON file {"n,p,q": [b0, b1, ...]}."""
    with open(path) as fh:
        data = json.load(fh)
    out = {}
    for key, vec in data.items():
        n, p, q = (int(x) for x in key.split(","))
        out[(n, p, q)] = tuple(vec)
    return out


class Checker:
    """Judges answers; f-vectors and critical counts it needs are cached."""

    def __init__(self, betti_overrides=None):
        self.betti_ref = dict(BETTI_GF2)
        self.betti_ref.update(betti_overrides or {})
        self._fvec = {}
        self._crit = {}

    def f_vector(self, n, p, q):
        from hardsquares import grid

        if (n, p, q) not in self._fvec:
            self._fvec[(n, p, q)] = grid.f_vector(n, p, q)
        return self._fvec[(n, p, q)]

    def critical_counts(self, n, p, q):
        from hardsquares import morse

        if (n, p, q) not in self._crit:
            self._crit[(n, p, q)] = morse.critical_counts(n, p, q)
        return self._crit[(n, p, q)]

    def problem(self, job, value):
        "None when the answer is right, else a one-line reason."
        from hardsquares.homology import AuditFailure, audit, euler

        kind, n, p, q = job
        if kind == "build":
            fv = self.f_vector(n, p, q)
            if euler(value) != euler(fv):
                return f"Morse counts {value} disagree with f-vector {fv} in Euler characteristic"
            return None
        if kind == "census":
            fv, morse_counts = tuple(value["f"]), tuple(value["morse"])
            ref = FVECTORS.get((n, p, q))
            if ref is not None and fv != ref:
                return f"f-vector {fv} != published {ref}"
            if n == p * q - 1:
                from hardsquares.grid import sliding_puzzle_counts

                puzzle = sliding_puzzle_counts(p, q)
                if fv != puzzle:
                    return f"f-vector {fv} != sliding-puzzle counts {puzzle}"
            if euler(fv) != euler(morse_counts):
                return f"Euler characteristic of f-vector {fv} != that of Morse counts {morse_counts}"
            return None
        if kind == "betti":
            bv, morse_counts = tuple(value["betti"]), tuple(value["morse"])
        else:
            bv, morse_counts = tuple(value), self.critical_counts(n, p, q)
        ref = self.betti_ref.get((n, p, q))
        if ref is None:
            return f"no published Betti vector for {(n, p, q)}"
        if bv != ref:
            return f"Betti vector {bv} != published {ref}"
        try:
            audit(n, p, q, bv, self.f_vector(n, p, q), morse_counts)
        except AuditFailure as exc:
            return str(exc)
        return None
