"""Seeded request corpus for the serve-einsum workload.

The server is `serve --accel-workload gemm-small`: one 4x4 MNK-SST
programmable array whose descriptor memories hold 4x the generating
4x4x4 GEMM's schedule.  Requests come in blocks of 20 with fixed class
shares, shuffled inside the block, so every prefix of whole blocks has
exactly these shares and `ok_frac` does not depend on the seed:

  class           share        shape                              why
  in_envelope     12/20 = 60%  m = n = 4, k in 1..16              the served path: search, compile, load,
                                                                  simulate, verify, encode.  Tensor and index
                                                                  names are renamed and the B operand comes
                                                                  as B[n,k] or B[k,n], so requests that differ
                                                                  only in names share an extent-free
                                                                  fingerprint and a memo can hit.
  small_spatial    5/20 = 25%  m or n (or both) in 1..3, k 1..16  fewer active PEs and feeders: rejected today
                                                                  with Structure_mismatch after the whole
                                                                  candidate search; a pad-to-array change
                                                                  turns these into answers.
  beyond           3/20 = 15%  k in 17..64, or m or n in 5..8     outside the envelope: rejected today; a
                                                                  pad-and-tile change turns these into answers.

Rejected classes stop before load and simulate.  The same seed gives a
byte-identical corpus: the generator uses its own SplitMix64, not
Python's `random`, so the bytes do not depend on the Python version.

Run `python3 perfbench/corpus.py --seed 7 --count 40` to print a corpus.
"""

import argparse
import json

BLOCK = (["in_envelope"] * 12) + (["small_spatial"] * 5) + (["beyond"] * 3)

OUTPUTS = ["C", "Out", "Y", "Z", "Acc"]
LEFTS = ["A", "X", "U", "Lhs"]
RIGHTS = ["B", "W", "V", "Rhs"]
INDICES = "ijklmnpqrstuvxyz"

MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed):
        self.state = seed & MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def between(self, lo, hi):
        """Uniform int in [lo, hi]."""
        return lo + self.next() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.next() % len(seq)]

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.next() % (i + 1)
            items[i], items[j] = items[j], items[i]


def shape(rng, cls):
    """(m, n, k) for one request of class `cls`."""
    k = rng.between(1, 16)
    if cls == "in_envelope":
        return 4, 4, k
    if cls == "small_spatial":
        which = rng.choice(["m", "n", "both"])
        m = rng.between(1, 3) if which in ("m", "both") else 4
        n = rng.between(1, 3) if which in ("n", "both") else 4
        return m, n, k
    which = rng.choice(["k", "m", "n"])
    if which == "k":
        return 4, 4, rng.between(17, 64)
    big = rng.between(5, 8)
    return (big, 4, k) if which == "m" else (4, big, k)


def request(rng, number, cls):
    m, n, k = shape(rng, cls)
    idx = list(INDICES)
    rng.shuffle(idx)
    i, j, r = idx[:3]
    out, lhs, rhs = rng.choice(OUTPUTS), rng.choice(LEFTS), rng.choice(RIGHTS)
    right = f"{rhs}[{j},{r}]" if rng.next() & 1 else f"{rhs}[{r},{j}]"
    return {
        "id": number,
        "einsum": f"{out}[{i},{j}] += {lhs}[{i},{r}] * {right}",
        "extents": f"{i}={m},{j}={n},{r}={k}",
    }


def requests(seed):
    """Endless stream of (class, request, (m, n, k)); ids count from 0."""
    rng = SplitMix64(seed)
    number = 0
    while True:
        block = list(BLOCK)
        rng.shuffle(block)
        for cls in block:
            req = request(rng, number, cls)
            yield cls, req, extents(req)
            number += 1


def extents(req):
    """The request's extents as (m, n, k), read back from its own text."""
    values = [int(kv.split("=")[1]) for kv in req["extents"].split(",")]
    return tuple(values)


def line(req):
    return json.dumps(req, separators=(",", ":"))


def corpus(seed, count):
    """The first `count` request lines for `seed`, newline-terminated."""
    out = []
    for _, req, _ in requests(seed):
        if len(out) == count:
            break
        out.append(line(req) + "\n")
    return "".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, default=len(BLOCK))
    a = ap.parse_args()
    print(corpus(a.seed, a.count), end="")


if __name__ == "__main__":
    main()
