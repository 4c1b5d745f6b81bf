"""Runtime limits and thread configuration.

Precedence: explicit keyword overrides (CLI flags), then the environment
variables HARDSQ_THREADS and HARDSQ_CELL_CAP, then an optional JSON config
file, then defaults.  The thread count is clamped to [1, os.cpu_count()],
since each thread is a forked worker process.  A value that is not an
integer, a config file that cannot be read and one that does not hold a
JSON object raise ValueError (invalid JSON already does).
"""

from __future__ import annotations

import dataclasses
import json
import os

from .morse import DEFAULT_FLOW_BUDGET
from .oracle import DEFAULT_CELL_CAP
from .parallel import default_threads

DEFAULT_VERTEX_CAP = 10_000_000


@dataclasses.dataclass
class Config:
    threads: int = 1
    cell_cap: int = DEFAULT_CELL_CAP
    flow_budget: int = DEFAULT_FLOW_BUDGET
    vertex_cap: int = DEFAULT_VERTEX_CAP


def load_config(path=None, env=None, **overrides):
    env = os.environ if env is None else env
    values = {
        "threads": default_threads(),
        "cell_cap": DEFAULT_CELL_CAP,
        "flow_budget": DEFAULT_FLOW_BUDGET,
        "vertex_cap": DEFAULT_VERTEX_CAP,
    }
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
        for key in values:
            if key in data:
                values[key] = _integer(data[key], f"config key {key!r}")
    for key, var in (("threads", "HARDSQ_THREADS"), ("cell_cap", "HARDSQ_CELL_CAP")):
        if var in env:
            values[key] = _integer(env[var], var)
    for key, val in overrides.items():
        if val is not None:
            values[key] = int(val)
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
