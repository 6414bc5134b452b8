"""Named deterministic seed sub-streams derived from one master seed.

The derivation is a documented hash (SHA-256 of "<master>/<name>", low 63
bits) so that runs comparing different method arms share the same dataset
and the same parameter initialisation whenever the master seed matches.
"""

import hashlib

import numpy as np

def substream_seed(master: int, name: str) -> int:
    digest = hashlib.sha256(f"{int(master)}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFFFFFFFFFFFFFF


def substream_rng(master: int, name: str) -> np.random.Generator:
    return np.random.default_rng(substream_seed(master, name))
