"""Percentiles and OCaml exit statistics for the benchmark."""

import math
import re

GC_LINE = re.compile(r"^([a-z_]+):\s*([0-9]+(?:\.[0-9]+)?)\s*$")


def percentile(values, p):
    """Nearest-rank percentile `p` (0 < p <= 1) of `values`.

    Returns (value, beyond): `beyond` is how many samples lie above the
    reported rank, so a p95 is only trustworthy when `beyond` >= 10."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def min_samples(p, beyond=10):
    """Smallest sample count whose nearest-rank `p` has `beyond` samples above it."""
    n = 1
    while n - max(1, math.ceil(p * n)) < beyond:
        n += 1
    return n


def parse_gc_stats(text):
    """The `name: number` lines OCAMLRUNPARAM=v=0x400 prints at exit.

    Other lines (the program's own stderr) are skipped; the last value
    of a name wins."""
    out = {}
    for raw in text.splitlines():
        m = GC_LINE.match(raw.strip())
        if m:
            name, value = m.groups()
            out[name] = float(value) if "." in value else int(value)
    return out


def with_gc_stats(env):
    """`env` with v=0x400 appended to any OCAMLRUNPARAM already set."""
    env = dict(env)
    prev = env.get("OCAMLRUNPARAM", "")
    env["OCAMLRUNPARAM"] = f"{prev},v=0x400" if prev else "v=0x400"
    return env

