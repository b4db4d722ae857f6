"""The seeded draws of ``fuzz`` are pinned.

Many tests read these families, and the benchmark's candidate pool is
``random_candidate(random.Random(7919 + i), 4)``, whose recorded outputs
depend on the order of its draws.  Each digest is the SHA-256 of every
object's name and ``serialization.dumps`` text, in order.
"""

import hashlib
import random

from zinbielkit import fuzz
from zinbielkit.serialization import dumps

PINNED = {
    "algebra_family": "49c06d27470ee25bb7a28b792c1a779ec821c48fcf7bcf4dd16ffd73d7d4874e",
    "bimodule_family": "a2372938dd4bb510dde97b3376080b74548730bd9e99ebf99d68d202e0f9633d",
    "matched_pair_family": "b871d3dd2d0799509c6efddbe506058a4fc2c7b865692644e9986bbc93a0eb43",
    "seeded_candidates": "cf92e96d8086c19e1d878837d82d3ad23520e0caa9bd8d7d4dd59e31484d954e",
    "random_objects": "508e7b8e678cbef90d4c598a0d543f5a0c3251b4ff1d3b910713bd262b385131",
    "pool_candidates": "24379d40b1309d6c83a986875651df2531855dbdd1eda78285c8b92c6bd21fdc",
}


def _digest(named) -> str:
    h = hashlib.sha256()
    for name, obj in named:
        h.update(f"{name}\n{dumps(obj)}".encode("utf-8"))
    return h.hexdigest()


def _draws() -> dict:
    return {
        "algebra_family": fuzz.algebra_family(),
        "bimodule_family": fuzz.bimodule_family(),
        "matched_pair_family": fuzz.matched_pair_family(),
        "seeded_candidates": fuzz.seeded_candidates(),
        "random_objects": enumerate(fuzz.random_objects()),
        "pool_candidates": [
            (i, fuzz.random_candidate(random.Random(7919 + i), 4)) for i in range(16)
        ],
    }


def test_seeded_draws_are_pinned():
    assert {name: _digest(named) for name, named in _draws().items()} == PINNED
