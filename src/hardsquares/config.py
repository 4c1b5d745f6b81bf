"""Runtime limits and thread configuration.

Three settings: the thread count, the cell cap (the most cells of any
complex a command builds, direct or Morse) and the vertex cap (the most
lines of a vertex-list export).  Precedence: explicit keyword overrides
(CLI flags), then the environment variables HARDSQ_THREADS and
HARDSQ_CELL_CAP, then an optional JSON config file, then defaults.  The
thread count is clamped to [1, the number of usable CPUs] (the affinity
mask, where the platform has one), since each thread is a forked worker
process.  A value that is not an integer, a negative limit,
a config file that cannot be read, one that does not hold a JSON object
and one with a key other than threads, cell_cap and vertex_cap raise
ValueError (invalid JSON already does).
"""

from __future__ import annotations

import dataclasses
import json
import os

from .oracle import DEFAULT_CELL_CAP
from .parallel import default_threads

DEFAULT_VERTEX_CAP = 10_000_000


@dataclasses.dataclass
class Config:
    threads: int = 1
    cell_cap: int = DEFAULT_CELL_CAP
    vertex_cap: int = DEFAULT_VERTEX_CAP


def load_config(path=None, env=None, **overrides):
    env = os.environ if env is None else env
    values = {
        "threads": default_threads(),
        "cell_cap": DEFAULT_CELL_CAP,
        "vertex_cap": DEFAULT_VERTEX_CAP,
    }
    data = {}
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config file {path!r}: {exc.strerror}") from None
        if not isinstance(data, dict):
            raise ValueError(
                f"config file {path!r} must hold a JSON object, not {type(data).__name__}"
            )
        unknown = [key for key in data if key not in values]
        if unknown:
            raise ValueError(
                f"unknown config key {', '.join(map(repr, unknown))};"
                f" the keys are {', '.join(values)}"
            )
    # (key, value, name in errors), lowest precedence first
    given = [(key, data[key], f"config key {key!r}") for key in values if key in data]
    env_vars = (("threads", "HARDSQ_THREADS"), ("cell_cap", "HARDSQ_CELL_CAP"))
    given += [(key, env[var], var) for key, var in env_vars if var in env]
    flags = {k: "--" + k.replace("_", "-") for k in overrides}
    given += [(k, v, flags[k]) for k, v in overrides.items() if v is not None]
    for key, raw, name in given:
        values[key] = _integer(raw, name)
        if key != "threads" and values[key] < 0:
            raise ValueError(f"{name} must not be negative, got {values[key]}")
    values["threads"] = max(1, min(values["threads"], default_threads()))
    return Config(**values)


def _integer(value, name):
    "An int, or a string of one; floats and booleans are refused, not truncated."
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")
