"""Session-wide caches so expensive builds run once across test modules,
and a SIGALRM guard for tests that must finish promptly."""

import signal
from contextlib import contextmanager
from functools import lru_cache

from hardsquares import grid, morse, oracle


@lru_cache(maxsize=None)
def morse_complex(n, p, q):
    return morse.build_morse_complex(n, p, q)


def labeled_cells(mc):
    """The labeled critical cells of mc by dimension, in id order.

    iter_critical_cells of mc's board, grouped by cell_dim.
    """
    cells = [[] for _ in mc.counts]
    for cell in morse.iter_critical_cells(mc.n, *mc.board):
        cells[grid.cell_dim(cell)].append(cell)
    return cells


@lru_cache(maxsize=None)
def morse_betti(n, p, q, field="gf2"):
    return morse_complex(n, p, q).betti(field)


@lru_cache(maxsize=None)
def direct_betti(n, p, q, field="gf2"):
    return oracle.direct_betti(n, p, q, field)


@contextmanager
def deadline(seconds, message):
    "Raise TimeoutError(message) if the block still runs after seconds."

    def hung(signum, frame):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
