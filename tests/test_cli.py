"""Command-line contract: exit codes, golden bytes, parallel determinism."""

import contextlib
import filecmp
import functools
import gc
import importlib.util
import io
import json
import logging
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from zinbielkit import check_bimodule, regular_bimodule, trunc_integration
from zinbielkit.cli import main

from test_goldens import load_generator


@pytest.fixture(autouse=True)
def _run_from_repo_root(request, monkeypatch):
    # corpus paths inside goldens are repo-root relative
    monkeypatch.chdir(request.config.rootpath)


def _nested_product(depth):
    """(x0 (x1 ( ... (x{depth-1} x{depth}) ... ))): ``depth`` nested products."""
    src = f"x{depth}"
    for i in reversed(range(depth)):
        src = f"(x{i} {src})"
    return src


def _left_nested_product(depth):
    """((..((x0 x1) x2) ..) x{depth}): ``depth`` nested products."""
    src = "x0"
    for i in range(1, depth + 1):
        src = f"({src} x{i})"
    return src


def _case_id(value):
    text = " ".join(value) if isinstance(value, list) else value
    if isinstance(text, str) and len(text) > 200:
        return f"{text[:60]}...[{len(text)} chars]"
    return text


# stands for a 6 KB file of 3,000 nested lists, which test_exit_codes writes
_DEEP_JSON = "deeply_nested.json"

# the one-line error of each audit whose flags its input cannot take, and of an
# unknown claim on an algebra
AUDIT_ERRORS = {
    ("audit", "tests/corpus/zero_pair.json", "--claims", "x"):
        "error: --claims needs an algebra input\n",
    ("audit", "tests/corpus/dual_t3.json", "--claims", "right_zinbiel"):
        "error: --claims needs an algebra input\n",
    ("audit", "tests/corpus/regular_t3_bimodule.json", "--orientation", "left"):
        "error: --orientation needs an algebra input\n",
    ("audit", "--model", "regular-bimodule:trunc-int:right:3", "--orientation", "right"):
        "error: --orientation needs an algebra input\n",
    ("audit", "tests/corpus/candidate_t2_zero.json", "--claims", "", "--orientation", "right"):
        "error: --claims needs an algebra input\n",
    ("audit", "--model", "trunc-int:right:3", "--claims", "no_such_claim"):
        "error: unknown claim(s): no_such_claim\n",
    ("audit", "--model", "trunc-int:right:3", "--claims", ""):
        "error: empty claim name in the claim filter\n",
    ("audit", "--model", "trunc-int:right:3", "--claims", "right_zinbiel,"):
        "error: empty claim name in the claim filter\n",
}


EXIT_CASES = [
    (["check", "tests/corpus/model_t3.json", "right_zinbiel"], 0),
    (["check", "tests/corpus/model_l3.json", "right_zinbiel"], 1),
    (["check", "tests/corpus/model_l3.json", "left_zinbiel"], 1),
    (["check", "tests/corpus/malformed.json", "right_zinbiel"], 2),
    (["check", "tests/corpus/bad_kind.json", "right_zinbiel"], 2),
    (["check", "tests/corpus/list_kind.json", "right_zinbiel"], 2),
    (["audit", "tests/corpus/dict_kind.json"], 2),
    (["check", "tests/corpus/no_such_file.json", "right_zinbiel"], 2),
    (["check", "tests/corpus/model_t3.json", "no_such_identity"], 2),
    (["check", "tests/corpus/model_t3.json", "(x (y z"], 2),
    (["check", "zero:1", _nested_product(600)], 0),
    (["check", "zero:1", _nested_product(1000)], 2),
    (["check", "tests/corpus/dual_t3.json", "co_right"], 0),
    (["check", "tests/corpus/dual_t3.json", "co_left"], 1),
    (["check", "tests/corpus/dual_t3.json", "no_such_check"], 2),
    (["check", "tests/corpus/regular_t3_bimodule.json", "axioms"], 0),
    (["check", "tests/corpus/broken_bimodule.json", "axioms"], 1),
    (["check", "tests/corpus/broken_bimodule.json", "derived_relations"], 1),
    (["check", "tests/corpus/zero_pair.json", "matched_pair"], 0),
    (["check", "tests/corpus/candidate_t2_zero.json", "manin_triple"], 1),
    (["check", "tests/corpus/regular_t3_bimodule.json", "no_such_check"], 2),
    (["check", "tests/corpus/zero_pair.json", "axioms"], 2),
    (["check", "tests/corpus/candidate_t2_zero.json", "matched_pair"], 2),
    (["check", "trunc-int:right:4", "right_zinbiel"], 0),
    (["check", "regular-bimodule:trunc-int:right:3", "axioms"], 0),
    (["check", "regular-bimodule:tests/corpus/model_t3.json", "axioms"], 0),
    (["check", "regular-bimodule:tests/corpus/dual_t3.json", "axioms"], 2),
    (["audit", "tests/corpus/model_t3.json"], 0),
    (["audit", "tests/corpus/broken_bimodule.json"], 0),
    (["audit", "tests/corpus/zero_pair.json"], 0),
    (["audit", "tests/corpus/malformed.json"], 2),
    (["audit", "--model", "no-such:spec"], 2),
    (["audit", "tests/corpus/model_t3.json", "--model", "trunc-int:right:3"], 2),
    (["audit"], 2),
    *((list(argv), 2) for argv in AUDIT_ERRORS),
    (["audit", "tests/corpus/zero_pair.json", "--orientation", "auto"], 0),
    (["model", "trunc-int:right:3"], 0),
    (["model", "trunc-int:sideways:3"], 2),
    (["model", "free:2"], 2),
    (["model", "trunc-int:right:3", "--out", "tests"], 2),
    (["model", "trunc-int:right:3", "--out", "tests/no_such_dir/model.json"], 2),
    (["construct", "dual", "trunc-int:right:3"], 0),
    (["construct", "opposite", "tests/corpus/dual_t3.json"], 2),
    (["construct", "symmetrize", "tests/corpus/zero_pair.json"], 2),
    (["construct", "commutator", "tests/corpus/candidate_t2_zero.json"], 2),
    (["construct", "semidirect", "tests/corpus/model_t3.json"], 2),
    (["construct", "double", "tests/corpus/model_t3.json"], 2),
    (["construct", "double", "tests/corpus/zero_pair.json"], 0),
    (["construct", "dual", "tests/corpus/regular_t3_bimodule.json"], 2),
    (["construct", "bialgebra-double", "tests/corpus/zero_pair.json"], 2),
    (["construct", "bialgebra-double", "tests/corpus/candidate_t2_zero.json"], 0),
    (["check", _DEEP_JSON, "right_zinbiel"], 2),
]


# the input kind the error of each unknown-check case above names
UNKNOWN_CHECK_KINDS = {
    "tests/corpus/dual_t3.json": "coalgebra",
    "tests/corpus/regular_t3_bimodule.json": "bimodule",
    "tests/corpus/zero_pair.json": "matched-pair",
    "tests/corpus/candidate_t2_zero.json": "bialgebra-candidate",
}


# the error of each construction given an input of another kind
CONSTRUCT_ERRORS = {
    "opposite": "error: opposite needs an algebra input\n",
    "symmetrize": "error: symmetrize needs an algebra input\n",
    "commutator": "error: commutator needs an algebra input\n",
    "semidirect": "error: semidirect needs a bimodule input\n",
    "double": "error: double needs a matched-pair input\n",
    "dual": "error: dual needs an algebra or coalgebra input\n",
    "bialgebra-double": "error: bialgebra-double needs a bialgebra_candidate input\n",
}


@pytest.mark.parametrize("argv,code", EXIT_CASES, ids=_case_id)
def test_exit_codes(argv, code, capsys, tmp_path):
    if _DEEP_JSON in argv:
        deep = tmp_path / _DEEP_JSON
        deep.write_text("[" * 3000 + "]" * 3000, encoding="utf-8")
        argv = [str(deep) if arg == _DEEP_JSON else arg for arg in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    err = captured.err
    if code == 2:  # an input error is one line on stderr, never a traceback
        assert err.startswith("error: ") and err.count("\n") == 1, err
        kind = UNKNOWN_CHECK_KINDS.get(argv[1]) if argv[0] == "check" else None
        if kind is not None:
            assert captured.out == ""
            assert err == f"error: unknown {kind} check {argv[2]!r}\n"
        if argv[0] == "construct":
            assert captured.out == ""
            assert err == CONSTRUCT_ERRORS[argv[1]]
        if tuple(argv) in AUDIT_ERRORS:
            assert captured.out == ""
            assert err == AUDIT_ERRORS[tuple(argv)]


# (argv, golden, exit code): the commands scripts/regenerate_goldens.py writes
# the CLI goldens with
GOLDEN_CASES = load_generator().CLI_GOLDENS


@pytest.mark.parametrize("argv,golden,code", GOLDEN_CASES, ids=[g for _, g, _ in GOLDEN_CASES])
def test_golden_bytes(argv, golden, code, goldens_dir, tmp_path):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (goldens_dir / golden).read_bytes()


def test_model_output_matches_corpus(corpus_dir, tmp_path):
    out = tmp_path / "model.json"
    assert main(["model", "trunc-int:right:3", "--out", str(out)]) == 0
    assert filecmp.cmp(out, corpus_dir / "model_t3.json", shallow=False)


def test_parallel_scheduling_never_changes_bytes(tmp_path):
    outs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"audit_{workers}.txt"
        argv = [
            "audit", "--model", "trunc-int:right:5", "--orientation", "right",
            "--parallel", str(workers), "--out", str(out),
        ]
        assert main(argv) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]

    check = []
    for workers in (1, 2, 8):
        out = tmp_path / f"check_{workers}.txt"
        argv = [
            "check", "trunc-int:left:3", "right_zinbiel",
            "--parallel", str(workers), "--out", str(out),
        ]
        assert main(argv) == 1
        check.append(out.read_bytes())
    assert check[0] == check[1] == check[2]


def test_claim_filter_limits_report(tmp_path):
    out = tmp_path / "one.json"
    argv = [
        "audit", "--model", "trunc-int:right:5", "--claims", "lie_admissible",
        "--format", "json", "--out", str(out),
    ]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert [c["claim"] for c in payload["claims"]] == ["lie_admissible"]
    assert payload["claims"][0]["verdict"] == "fails"
    assert payload["claims"][0]["witness"]["failures"][0]["tuple"] == [0, 1, 2]


def test_check_json_payload(tmp_path):
    out = tmp_path / "check.json"
    argv = [
        "check", "tests/corpus/model_l3.json", "right_zinbiel",
        "--format", "json", "--out", str(out),
    ]
    assert main(argv) == 1
    payload = json.loads(out.read_text())
    assert payload["kind"] == "check_report"
    assert payload["holds"] is False
    assert payload["violations"] == 16
    assert payload["witness"]["tuple"] == [0, 1, 0]


def test_check_stdout(capsys):
    assert main(["check", "trunc-int:right:2", "right_zinbiel"]) == 0
    assert capsys.readouterr().out == "right_zinbiel: HOLDS (trunc-int:right:2)\n"


def test_check_parses_any_name_that_is_not_a_bare_identifier(capsys):
    # A bare identifier is a catalog lookup; anything else is an expression,
    # with or without parentheses.
    assert main(["check", "trunc-int:right:2", "2*x - 2*x"]) == 0
    assert capsys.readouterr().out == "2*x - 2*x: HOLDS (trunc-int:right:2)\n"
    assert main(["check", "trunc-int:right:2", "x - 2*x"]) == 1
    assert capsys.readouterr().out == (
        "x - 2*x: FAILS (trunc-int:right:2) violations=3\n  at (e0): residual = -e0\n")
    for name in ("right_zinbeil", " right_zinbiel"):
        assert main(["check", "trunc-int:right:2", name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown identity {name!r} (and not an expression)\n"


def test_readme_quick_start_checks(request, capsys):
    # Each `$ zinbielkit check` line of the README's quick start, with the
    # lines up to the next blank one as its output.
    readme = (request.config.rootpath / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.split("\n\n"):
        command, _, output = chunk.partition("\n")
        if command.startswith("$ zinbielkit check "):
            examples.append((shlex.split(command)[2:], output + "\n"))
    codes = []
    for argv, want in examples:
        codes.append(main(argv))
        assert capsys.readouterr().out == want, argv
    assert codes == [0, 1, 0]


def test_opposite_is_a_cli_involution(tmp_path, corpus_dir):
    once = tmp_path / "once.json"
    twice = tmp_path / "twice.json"
    assert main(["construct", "opposite", "tests/corpus/model_t3.json", "--out", str(once)]) == 0
    assert main(["construct", "opposite", str(once), "--out", str(twice)]) == 0
    assert twice.read_bytes() == (corpus_dir / "model_t3.json").read_bytes()


def test_console_entry_points():
    run = subprocess.run(
        [sys.executable, "-m", "zinbielkit", "check", "trunc-int:right:2", "right_zinbiel"],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0
    assert "HOLDS" in run.stdout

    exe = shutil.which("zinbielkit")
    assert exe, "console script not installed"
    run = subprocess.run(
        [exe, "check", "trunc-int:left:2", "right_zinbiel"], capture_output=True, text=True
    )
    assert run.returncode == 1
    assert "FAILS" in run.stdout


def _python(request, *args, text=True):
    """A fresh interpreter run from the repository root with ``src`` on the path."""
    paths = [str(request.config.rootpath / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=text,
        env=env,
        cwd=request.config.rootpath,
        timeout=20,
    )


# A text and a JSON golden of each input kind (algebra, bimodule, coalgebra,
# bialgebra candidate, matched pair), exit 1 among them, run as processes.
_PROCESS_GOLDENS = (
    "check_right_zinbiel_l3", "audit_bimodule_broken", "check_co_right_dual_t3",
    "audit_candidate_t2_zero", "check_matched_pair_dual_reps_t3",
)
_PROCESS_CASES = [case for case in GOLDEN_CASES
                  if case[1].rpartition(".")[0] in _PROCESS_GOLDENS]


@pytest.mark.parametrize("argv,golden,code", _PROCESS_CASES, ids=[g for _, g, _ in _PROCESS_CASES])
def test_golden_bytes_through_python_m_zinbielkit(request, argv, golden, code, goldens_dir, tmp_path):
    # text on stdout, JSON written with --out
    out = tmp_path / "out"
    to_file = golden.endswith(".json")
    run = _python(request, "-m", "zinbielkit", *argv, *(["--out", str(out)] if to_file else []),
                  text=False)
    assert run.returncode == code, run.stderr
    assert (out.read_bytes() if to_file else run.stdout) == (goldens_dir / golden).read_bytes()
    assert run.stderr == b""


def test_input_error_through_python_m_zinbielkit(request):
    argv = ("audit", "--model", "trunc-int:right:3", "--claims", "no_such_claim")
    run = _python(request, "-m", "zinbielkit", *argv, text=False)
    assert (run.returncode, run.stdout) == (2, b"")
    assert run.stderr == AUDIT_ERRORS[argv].encode()


def test_check_with_vanishing_products_ends_at_once(request):
    # 31 variables: a scan of all 2^31 basis tuples would not end, but every
    # product of three elements of trunc-int:right:1 is zero.
    expr = f"{_left_nested_product(30)} - {_nested_product(30)}"
    run = _python(request, "-m", "zinbielkit", "check", "trunc-int:right:1", expr)
    assert run.returncode == 0, run.stderr
    assert run.stdout.endswith(": HOLDS (trunc-int:right:1)\n")


# Identity sources: sums of terms over one set of names, each name once per
# term as the arity rule asks, a quarter of them broken by a coefficient, a
# suffix or a term that breaks that rule; token soup; and short text.
_COEFFS = st.sampled_from(["", "", "2 * ", "1/2 * ", "3/4 * ", "0 * ",
                           "123456789012345678901234567890 * "])
_BAD_COEFFS = st.sampled_from(["1/0 * ", "7 ", "2/ * ", "-3/4 * ", "* "])
_SUFFIXES = st.sampled_from(["", " = 0"])
_BAD_SUFFIXES = st.sampled_from([" = 1", " =", " )", " (", " x", " = 0 0"])


@st.composite
def _sums(draw):
    names = draw(st.lists(st.sampled_from(["x", "y", "z", "w", "e1", "_v"]), min_size=1,
                          max_size=4, unique=True))
    broken = draw(st.integers(0, 3)) == 0

    def tree(leaves):
        if len(leaves) == 1:
            return leaves[0]
        k = draw(st.integers(1, len(leaves) - 1))
        return f"({tree(leaves[:k])} {tree(leaves[k:])})"

    src = draw(st.sampled_from(["", "-", "+ "]))
    for i in range(draw(st.integers(1, 3))):
        if i:
            src += draw(st.sampled_from([" + ", " - ", "-", "+"]))
        leaves = draw(st.permutations(names))
        if broken and draw(st.booleans()):
            leaves = leaves[1:] or leaves * 2
        src += draw(_BAD_COEFFS if broken and draw(st.booleans()) else _COEFFS) + tree(leaves)
    return src + draw(_BAD_SUFFIXES if broken and draw(st.booleans()) else _SUFFIXES)


_TOKENS = st.lists(
    st.sampled_from(["x", "y", "z", "(", ")", "+", "-", "*", "/", "=", "0", "2", " ", "é", "#",
                     "\t", "right_zinbiel", "9" * 30]),
    max_size=30,
).map("".join)
_SOURCES = st.one_of(_sums(), _TOKENS, st.text(max_size=20), st.sampled_from(["right_zinbiel", ""]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_SOURCES)
def test_any_identity_source_ends_in_an_exit_code_and_one_message(source):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["check", "trunc-int:right:3", source])
        except SystemExit as exc:  # argparse, e.g. a source that looks like an option
            code = exc.code
    assert code in (0, 1, 2), (code, err.getvalue())
    lines = err.getvalue().splitlines()
    assert sum("error:" in line for line in lines) <= 1, lines
    assert (code == 2) == any("error:" in line for line in lines), (code, lines)
    assert "Traceback" not in err.getvalue()


# the check names of each input kind; every corpus payload of one of these
# kinds is a seed of the loader fuzz below
_CHECKS_OF_KIND = {
    "algebra": ("right_zinbiel", "left_zinbiel"),
    "coalgebra": ("co_right", "aux"),
    "bimodule": ("axioms", "derived_relations", "subadjacent"),
    "matched_pair": ("matched_pair",),
    "bialgebra_candidate": ("manin_triple",),
}


@functools.cache
def _seed_payloads() -> tuple:
    out = []
    for path in sorted((Path(__file__).parent / "corpus").glob("*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            continue  # the deliberately malformed input
        if isinstance(payload["kind"], str) and payload["kind"] in _CHECKS_OF_KIND:
            out.append(payload)
    return tuple(out)


def _draw_field(data, payload) -> tuple:
    """The key path of a field, drawn by a walk from the top: each step
    enters one field (a dict key or a list index) of the value reached, and
    the walk stops at a scalar, at an empty value or on a coin flip."""
    path, node = (), payload
    while isinstance(node, (dict, list)) and node and (not path or data.draw(st.booleans())):
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path, node = path + (key,), node[key]
    return path


# Values every loader refuses before it builds anything, or small dims.
_FIELD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 2),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.integers(-1, 2), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(-1, 2), max_size=2),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_mutated_payload_ends_in_an_exit_code_and_one_message(tmp_path, data):
    payload = data.draw(st.sampled_from(_seed_payloads()))
    checks = _CHECKS_OF_KIND[payload["kind"]]
    *parents, key = _draw_field(data, payload)
    payload = json.loads(json.dumps(payload))  # a copy to mutate
    node = payload
    for parent in parents:
        node = node[parent]
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(_FIELD_VALUES)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    argv = data.draw(st.sampled_from([["audit", str(path)]] + [["check", str(path), c] for c in checks]))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (code, err.getvalue())
    lines = err.getvalue().splitlines()
    assert sum("error:" in line for line in lines) <= 1, lines
    assert (code == 2) == any("error:" in line for line in lines), (code, lines)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "args,message",
    [
        (["--claims", "nope"], "error: unknown claim(s): nope\n"),
        (["--claims", ""], "error: empty claim name in the claim filter\n"),
        (["--claims", "lie_admissible,"], "error: empty claim name in the claim filter\n"),
        (["--max-n", "1", "--out", "tests"], "error: cannot write tests: "),
        (["--max-n", "1", "--out", "tests/no_such_dir/audit.txt"], "error: cannot write "),
    ],
    ids=["unknown-claim", "empty-claims", "empty-claim-name", "out-is-a-directory",
         "out-in-missing-directory"],
)
def test_claim_audit_script_input_errors_exit_2(request, args, message):
    run = _python(request, "scripts/run_claim_audit.py", *args)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith(message) and run.stderr.count("\n") == 1, run.stderr


@pytest.mark.parametrize("claims,message", [
    ("nope", "error: unknown claim(s): nope\n"),
    ("lie_admissible,", "error: empty claim name in the claim filter\n"),
])
def test_claim_audit_script_checks_its_claim_filter_before_any_table(
        request, monkeypatch, capsys, claims, message):
    from zinbielkit import fuzz

    def no_tables(max_n):
        raise AssertionError("a table was built before the claim filter was checked")

    spec = importlib.util.spec_from_file_location(
        "run_claim_audit", request.config.rootpath / "scripts" / "run_claim_audit.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(fuzz, "standard_models", no_tables)
    assert script.main(["--max-n", "200", "--claims", claims]) == 2
    assert capsys.readouterr() == ("", message)


# Modules that no algebra check runs: a subcommand or input kind imports the
# ones it needs.
_STRUCTURAL = {
    f"zinbielkit.{name}"
    for name in ("audit", "bialgebra", "bimodule", "coalgebra", "matched_pair", "serialization")
}


def test_start_up_loads_no_dataclasses_inspect_or_logging(request):
    # Each command is a fresh interpreter, so these imports would be paid by
    # every one of them.
    def loaded(code):
        run = _python(request, "-c", f"import sys; {code}; print(*sorted(sys.modules))")
        assert run.returncode == 0, run.stderr
        return set(run.stdout.split())

    bare = loaded("pass")
    cli = loaded("import zinbielkit.cli")
    script = loaded("sys.path.insert(0, 'scripts'); import run_claim_audit")
    for modules in (cli, script):
        assert not {"dataclasses", "inspect", "logging"} & (modules - bare)
    assert not (_STRUCTURAL | {"zinbielkit.fuzz"}) & cli


def _zinbielkit_modules_after(request, argv) -> set[str]:
    code = (
        "import contextlib, io, sys, zinbielkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    zinbielkit.cli.main({list(argv)!r})\n"
        "print(*sorted(m for m in sys.modules if m.startswith('zinbielkit')))"
    )
    run = _python(request, "-c", code)
    assert run.returncode == 0, run.stderr
    return set(run.stdout.split())


# The module of the JSON writer, which only a command that writes JSON loads.
_WRITER = "zinbielkit.jsonwriter"

# The library lines (``wc -l``) of the modules a model-spec check loads, and
# of those a JSON-input structural audit loads; each is compiled from source on
# every command, so code that drifts back onto these paths fails here.
_DEFAULT_PATH_LINES = 1694
_CANDIDATE_AUDIT_LINES = 3264


def _library_lines(modules) -> int:
    return sum(len(Path(importlib.util.find_spec(m).origin).read_text(encoding="utf-8")
                   .splitlines()) for m in modules)


def test_each_command_loads_only_the_modules_it_runs(request):
    base = _zinbielkit_modules_after(request, ["check", "trunc-int:right:3", "right_zinbiel"])
    assert not base & (_STRUCTURAL | {_WRITER})
    assert {"zinbielkit.cli", "zinbielkit.identities", "zinbielkit.models"} <= base
    assert _library_lines(base) <= _DEFAULT_PATH_LINES
    audit = _zinbielkit_modules_after(request, ["audit", "--model", "free:2:2"])
    assert audit - base == {"zinbielkit.audit"}
    check_json = _zinbielkit_modules_after(
        request, ["check", "trunc-int:right:3", "right_zinbiel", "--format", "json"])
    assert check_json - base == {_WRITER}
    audit_json = _zinbielkit_modules_after(request, ["audit", "--model", "free:2:2", "--format", "json"])
    assert audit_json - base == {"zinbielkit.audit", _WRITER}
    model = _zinbielkit_modules_after(request, ["model", "trunc-int:right:3"])
    assert model - base == {"zinbielkit.serialization", _WRITER}
    co_left = _zinbielkit_modules_after(request, ["check", "tests/corpus/dual_t3.json", "co_left"])
    assert not {"zinbielkit.bialgebra", "zinbielkit.bimodule", "zinbielkit.matched_pair",
                _WRITER} & co_left
    assert {"zinbielkit.coalgebra", "zinbielkit.serialization"} <= co_left
    candidate = _zinbielkit_modules_after(request, ["audit", "tests/corpus/candidate_t2_zero.json"])
    assert _WRITER not in candidate and "zinbielkit.bialgebra" in candidate
    assert _library_lines(candidate) <= _CANDIDATE_AUDIT_LINES


@pytest.mark.parametrize("spec", [
    "zero:1_0", "zero:-1", "zero:", "zero: 2", "zero:0x1", "trunc-int:right:+3",
    "trunc-int:right: 3", "trunc-int:left:3 ", "trunc-int:right:3.0", "free:+2:2", "free:2:2_0",
])
def test_model_spec_counts_are_decimal_digits_only(spec, capsys):
    for argv in (["check", spec, "right_zinbiel"], ["audit", "--model", spec], ["model", spec]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: bad model spec: {spec!r}\n"), argv


def test_logging_configured_after_import_gets_the_debug_record(request):
    code = (
        "import zinbielkit.cli, logging; "
        "logging.basicConfig(level=logging.DEBUG, format='%(name)s: %(message)s'); "
        "zinbielkit.cli.main(['check', 'trunc-int:right:3', 'right_zinbiel'])"
    )
    run = _python(request, "-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "right_zinbiel: HOLDS (trunc-int:right:3)\n"
    assert "zinbielkit.identities: sparse join: 4^3 = 64 basis tuples" in run.stderr


def _cyclic_garbage_after(request, argv) -> int:
    """What ``gc.collect()`` finds after ``cli.main(argv)`` in a fresh
    interpreter that runs with the collector off, as ``python -m zinbielkit``
    does."""
    code = (
        "import gc; gc.disable()\n"
        "import contextlib, io, zinbielkit.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = zinbielkit.cli.main({list(argv)!r})\n"
        "print(rc, gc.collect())"
    )
    run = _python(request, "-c", code)
    assert run.returncode == 0, run.stderr
    rc, found = map(int, run.stdout.split())
    assert rc == 0, argv
    return found


def test_cyclic_garbage_of_a_command_does_not_grow_with_its_input(request, tmp_path):
    from zinbielkit.bialgebra import BialgebraCandidate
    from zinbielkit.serialization import dumps

    t12 = trunc_integration(12, "right")
    big = tmp_path / "candidate_t12.json"
    big.write_text(dumps(BialgebraCandidate(t12, t12)), encoding="utf-8")
    for small, large in (
        (["audit", "--model", "trunc-int:right:3"], ["audit", "--model", "trunc-int:right:12"]),
        (["audit", "tests/corpus/candidate_t2_zero.json"], ["audit", str(big)]),
    ):
        assert _cyclic_garbage_after(request, small) == _cyclic_garbage_after(request, large)


# the collector's state at exit, printed by an atexit hook: off, with every
# object the command left frozen out of the interpreter's last collection
_AT_EXIT = "collector on: False, frozen: True\n"
_EXIT_HOOK = ("import atexit, gc, runpy, sys\n"
              "atexit.register(lambda: print(f'collector on: {gc.isenabled()}, '\n"
              "                              f'frozen: {gc.get_freeze_count() > 0}'))\n")


# (argv, exit code, stdout, last line of stderr): every way a command ends
_ENDINGS = [
    (["check", "trunc-int:right:2", "right_zinbiel"], 0,
     "right_zinbiel: HOLDS (trunc-int:right:2)\n", None),
    (["check", "trunc-int:left:2", "right_zinbiel"], 1,
     "right_zinbiel: FAILS (trunc-int:left:2) violations=7\n"
     "  at (e0,e1,e0): residual = -e1\n", None),
    (["check", "zero:-1", "right_zinbiel"], 2, "", "error: bad model spec: 'zero:-1'"),
    (["check"], 2, "", "zinbielkit check: error: the following arguments are required: input, name"),
]


def test_python_m_zinbielkit_runs_without_the_cyclic_collector(request):
    for argv, code, stdout, last_err in _ENDINGS:
        src = (
            _EXIT_HOOK
            + f"sys.argv = ['zinbielkit', *{argv!r}]\n"
            "runpy.run_module('zinbielkit', run_name='__main__', alter_sys=True)"
        )
        run = _python(request, "-c", src)
        assert run.returncode == code, (argv, run.stderr)
        assert run.stdout == stdout + _AT_EXIT, argv
        assert run.stderr.splitlines()[-1:] == ([last_err] if last_err else []), argv


def test_claim_audit_script_turns_the_collector_off_only_as_a_script(request):
    script = (
        _EXIT_HOOK
        + "sys.argv = ['run_claim_audit.py', '--max-n', '1', '--claims', 'right_zinbiel']\n"
        "runpy.run_path('scripts/run_claim_audit.py', run_name='__main__')"
    )
    # imported, and its main() called, as a long-lived caller does
    module = ("import contextlib, gc, io, sys; sys.path.insert(0, 'scripts'); import run_claim_audit\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    rc = run_claim_audit.main(['--max-n', '1', '--claims', 'right_zinbiel'])\n"
              "print(rc, gc.isenabled(), gc.get_freeze_count())")
    run, loaded = _python(request, "-c", script), _python(request, "-c", module)
    assert run.returncode == 0 and run.stdout.endswith(_AT_EXIT), run.stderr
    assert loaded.stdout == "0 True 0\n", loaded.stderr


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_main_leaves_the_callers_collector_as_it_was(enabled, capsys):
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["check", "trunc-int:right:2", "right_zinbiel"]) == 0
        assert gc.isenabled() == enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()


_PAIR_INPUTS = ("tests/corpus/pair_regular_t5.json", "tests/corpus/dual_reps_t3.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "trunc-int:left:3", "left_zinbiel"],
        ["check", "trunc-int:right:3", "lie_admissible", "--format", "json"],
        ["audit", "--model", "trunc-int:left:3"],
        ["audit", "--model", "free:2:2", "--format", "json"],
        ["audit", _PAIR_INPUTS[0]],
        ["check", _PAIR_INPUTS[1], "matched_pair", "--format", "json"],
    ],
)
def test_debug_logging_leaves_stdout_unchanged(argv, capsys, caplog):
    code = main(argv)
    quiet = capsys.readouterr().out
    with caplog.at_level(logging.DEBUG, logger="zinbielkit"):
        assert main(argv) == code
    assert capsys.readouterr().out == quiet
    loggers = {r.name for r in caplog.records}
    assert "zinbielkit.identities" in loggers
    assert ("zinbielkit.matched_pair" in loggers) == (argv[1] in _PAIR_INPUTS)


def test_bimodule_audit_reports_every_axiom_violation(capsys):
    want = len(check_bimodule(regular_bimodule(trunc_integration(3, "left"))))
    assert want > 1
    assert main(["audit", "regular-bimodule:trunc-int:left:3", "--format", "json"]) == 0
    sections = json.loads(capsys.readouterr().out)["sections"]
    assert sections[0] == {"title": "axioms", "holds": False, "violations": want}
    assert sections[1] == {"title": "derived_relations", "vacuous": True}
