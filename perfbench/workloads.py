"""The benchmark's workloads: closed-loop command sequences for one client.

Each command is one ``python -m zinbielkit`` call (or a script under
``scripts/``), run from the repository root with ``src`` on the path.  A
command's output is its stdout followed by the file it wrote with ``--out``;
the output and exit code are compared with a golden under ``tests/goldens``,
with a digest recorded at the seed commit in ``expected.json``, or with the
independent evaluator in ``oracle.py`` for seeded identities.

Why these workloads:

- ``dense-trunc``: truncated-integration tables, where most products are
  nonzero and failures are many, so witness, report and JSON emission carry a
  large share and a sparse join has little to skip.  Its ``--parallel 2``
  audit is the only call on the thread-pool path.
- ``sparse-free``: free half-shuffle tables, where most products are zero and
  failures are few, so evaluating zero products dominates.
- ``structures``: bimodule, matched-pair, coalgebra and bialgebra inputs that
  bypass the identity DSL, each written by a command or by ``serialization``
  and then read back.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

import oracle

WORK_DIR = ".perfbench_work"
GOLDENS = "tests/goldens"
CLAIM_AUDIT = "scripts/run_claim_audit.py"
IDENTITY_DEGREES = (3, 4, 3, 4)
CANDIDATE_POOL = 16
CANDIDATE_DIM = 4
CANDIDATES_PER_RUN = 3


@dataclass(frozen=True)
class Expected:
    """Exit code, output digest and size, and work counts a command must give."""

    rc: int
    sha256: str
    nbytes: int
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Command:
    """One program call and how its output is checked.

    ``kind`` names the end-to-end sum the call joins: ``check``, ``audit`` or
    ``construct`` (the ``model`` and ``construct`` write side).
    """

    kind: str
    argv: tuple[str, ...]
    golden: str | None = None
    rc: int = 0  # exit code expected with ``golden``
    out: str | None = None
    oracle: Expected | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def is_script(self) -> bool:
        return self.argv[0].endswith(".py")


def _work(name: str) -> str:
    return f"{WORK_DIR}/{name}"


def _write(kind: str, *argv: str, out: str | None = None) -> Command:
    if out is None:
        return Command(kind, argv)
    return Command(kind, (*argv, "--out", _work(out)), out=_work(out))


def _golden(kind: str, name: str, *argv: str, rc: int = 0) -> Command:
    return Command(kind, argv, golden=f"{GOLDENS}/{name}", rc=rc)


def _model_structure(spec: str):
    from zinbielkit.models import free_halfshuffle, trunc_integration
    from zinbielkit.serialization import to_jsonable

    family, a, b = spec.split(":")
    table = trunc_integration(int(b), a) if family == "trunc-int" else free_halfshuffle(int(a), int(b))
    return to_jsonable(table)


def seeded_identities(rng: random.Random, spec: str) -> list[Command]:
    """``check SPEC EXPR`` for freshly drawn identities, with oracle results."""
    table = _model_structure(spec)
    dim, structure = table["dim"], table["structure"]
    out = []
    for degree in IDENTITY_DEGREES:
        text, terms = oracle.random_identity(rng, degree)
        rc, output, found = oracle.expected_check(spec, text, structure, dim, terms)
        counts = {"models.nnz": len(structure), "identities.evaluate.tuples": dim**degree}
        if found:
            counts["identities.evaluate.residuals"] = found
        expected = Expected(rc, hashlib.sha256(output).hexdigest(), len(output), counts)
        out.append(Command("check", ("check", spec, text), oracle=expected))
    return out


def dense_trunc(identities: list[Command]) -> list[Command]:
    return [
        Command("audit", (CLAIM_AUDIT,)),
        Command("audit", ("audit", "--model", "trunc-int:left:12", "--format", "json")),
        Command("audit", ("audit", "--model", "trunc-int:right:12", "--parallel", "2")),
        Command("check", ("check", "trunc-int:right:20", "right_zinbiel")),
        Command("check", ("check", "trunc-int:right:20", "lie_admissible")),
        *identities,
        _golden("audit", "audit_trunc_right_5.txt",
                "audit", "--model", "trunc-int:right:5", "--orientation", "right"),
        _golden("audit", "audit_trunc_right_5.json", "audit", "--model", "trunc-int:right:5",
                "--orientation", "right", "--format", "json"),
        _golden("audit", "audit_trunc_left_3.txt",
                "audit", "--model", "trunc-int:left:3", "--orientation", "left"),
        _golden("audit", "audit_trunc_left_3.json", "audit", "--model", "trunc-int:left:3",
                "--orientation", "left", "--format", "json"),
        _golden("check", "check_right_zinbiel_t3.txt", "check", "trunc-int:right:3", "right_zinbiel"),
        _golden("check", "check_right_zinbiel_l3.txt", "check", "trunc-int:left:3", "right_zinbiel",
                rc=1),
        _write("construct", "model", "trunc-int:right:20"),
        _write("construct", "construct", "opposite", "trunc-int:left:12"),
    ]


def sparse_free(identities: list[Command]) -> list[Command]:
    return [
        Command("audit", ("audit", "--model", "free:2:4", "--format", "json")),
        Command("check", ("check", "free:2:5", "right_zinbiel")),
        Command("check", ("check", "free:2:5", "left_zinbiel")),
        *identities,
        _write("construct", "model", "free:2:5"),
        _write("construct", "construct", "commutator", "free:2:4"),
    ]


def candidate_file(index: int) -> str:
    return _work(f"candidate_{index}.json")


def pool_candidate(index: int):
    """Bialgebra candidate ``index`` of the fixed pool the seed draws from.

    The pool is fixed so that every candidate's outputs can be recorded at
    the seed commit; the seed picks which candidates a run audits.
    """
    from zinbielkit.fuzz import random_candidate

    return random_candidate(random.Random(7919 + index), CANDIDATE_DIM)


def structure_inputs(picks) -> dict[str, str]:
    """Files the benchmark writes with ``serialization.dumps`` before a run."""
    from zinbielkit.algebra import algebra_from_entries
    from zinbielkit.bialgebra import BialgebraCandidate
    from zinbielkit.bimodule import regular_bimodule
    from zinbielkit.matched_pair import MatchedPair
    from zinbielkit.models import trunc_integration
    from zinbielkit.serialization import dumps
    from zinbielkit.tensors import Matrix

    t12 = trunc_integration(12, "right")
    # The regular bimodule of T16 as a matched pair against the zero product.
    regular = regular_bimodule(trunc_integration(16, "right"))
    zero = (Matrix.zero(regular.base.dim, regular.base.dim),) * regular.v_dim
    pair = MatchedPair(regular.base, algebra_from_entries(regular.v_dim, []),
                       regular.left_maps, regular.right_maps, zero, zero)
    files = {
        _work("pair_t16.json"): dumps(pair),
        _work("candidate_t12.json"): dumps(BialgebraCandidate(t12, t12)),
    }
    for index in picks:
        files[candidate_file(index)] = dumps(pool_candidate(index))
    return files


def candidate_commands(index: int) -> list[Command]:
    return [
        Command("audit", ("audit", candidate_file(index))),
        Command("check", ("check", candidate_file(index), "manin_triple")),
        _write("construct", "construct", "bialgebra-double", candidate_file(index),
               out=f"double_candidate_{index}.json"),
    ]


def structures(picks) -> list[Command]:
    drawn = [candidate_commands(index) for index in picks]
    return [
        _write("construct", "construct", "dual", "trunc-int:right:24", out="dual_t24.json"),
        _write("construct", "construct", "dual", "free:2:5", out="dual_f25.json"),
        _write("construct", "construct", "semidirect", "regular-bimodule:trunc-int:right:12",
               out="semidirect_t12.json"),
        _write("construct", "model", "trunc-int:right:16", out="t16.json"),
        Command("audit", ("audit", _work("dual_t24.json"))),
        Command("audit", ("audit", _work("dual_f25.json"))),
        Command("audit", ("audit", _work("semidirect_t12.json"),
                          "--claims", "right_zinbiel,left_relation")),
        Command("audit", ("audit", _work("t16.json"), "--claims", "right_zinbiel,center_symmetric")),
        Command("audit", ("audit", _work("pair_t16.json"))),
        Command("audit", ("audit", _work("candidate_t12.json"))),
        *(cmds[0] for cmds in drawn),
        Command("audit", ("audit", "regular-bimodule:free:2:4")),
        Command("check", ("check", _work("dual_t24.json"), "aux")),
        Command("check", ("check", _work("dual_f25.json"), "co_left")),
        Command("check", ("check", "regular-bimodule:trunc-int:right:12", "derived_relations")),
        Command("check", ("check", _work("pair_t16.json"), "matched_pair")),
        Command("check", ("check", _work("candidate_t12.json"), "manin_triple")),
        *(cmds[1] for cmds in drawn),
        _golden("audit", "audit_bimodule_regular_t5.txt", "audit", "regular-bimodule:trunc-int:right:5"),
        _golden("audit", "audit_coalgebra_dual_t3.txt", "audit", "tests/corpus/dual_t3.json"),
        _golden("audit", "audit_candidate_t2_zero.txt", "audit", "tests/corpus/candidate_t2_zero.json"),
        _golden("construct", "construct_semidirect_t3.json",
                "construct", "semidirect", "regular-bimodule:trunc-int:right:3"),
        _write("construct", "construct", "double", _work("pair_t16.json"), out="double_t16.json"),
        _write("construct", "construct", "bialgebra-double", _work("candidate_t12.json"),
               out="double_candidate_t12.json"),
        *(cmds[2] for cmds in drawn),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: list[Command]
    inputs: dict[str, str]


NAMES = ("dense-trunc", "sparse-free", "structures")


def build(name: str, seed: int) -> Workload:
    """The command sequence and input files of one workload for one seed."""
    rng = random.Random(f"{name}:{seed}")
    if name == "dense-trunc":
        return Workload(name, dense_trunc(seeded_identities(rng, "trunc-int:right:12")), {})
    if name == "sparse-free":
        return Workload(name, sparse_free(seeded_identities(rng, "free:2:3")), {})
    if name == "structures":
        picks = sorted(rng.sample(range(CANDIDATE_POOL), CANDIDATES_PER_RUN))
        return Workload(name, structures(picks), structure_inputs(picks))
    raise ValueError(f"unknown workload {name!r}")


def fixed_commands() -> tuple[list[Command], dict[str, str]]:
    """Every command recorded in ``expected.json``, with the files they read:
    all commands but the seeded identities, over the whole candidate pool."""
    pool = range(CANDIDATE_POOL)
    return dense_trunc([]) + sparse_free([]) + structures(pool), structure_inputs(pool)
