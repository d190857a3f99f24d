import contextlib
import io
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pragmaql.cli
from pragmaql import bundled_model_document
from pragmaql.cli import run

from helpers import blocksum, child_env, seeded_c3_triple

FIXTURES = Path(__file__).parent / "fixtures"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_process(*argv):
    """Run the CLI in a child interpreter, so a hang times out and a
    traceback reaches stderr."""
    proc = subprocess.run([sys.executable, "-m", "pragmaql.cli", *argv], env=child_env(),
                          capture_output=True, text=True, timeout=30)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# happy paths from the command reference


def test_eval_undefined(capsys):
    code, out, _ = invoke(capsys, "eval", "-m", "qubit-zx.json",
                          "-s", "x+", "-f", "az")
    assert code == 0
    assert out == "Undefined\n"


def test_justify_negation(capsys):
    code, out, _ = invoke(capsys, "justify", "-m", "qubit-zx.json",
                          "-s", "z-", "-f", "N(|- az)")
    assert code == 0
    assert out == "J\n"


def test_lattice_dot(capsys):
    code, out, _ = invoke(capsys, "lattice", "-m", "qubit-zx.json",
                          "--atoms", "az,ax", "--depth", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert len(re.findall(r"\[label=", out)) == 6
    assert len(re.findall(r"n\d+ -> n\d+;", out)) == 8


def test_check_ok(capsys):
    code, out, _ = invoke(capsys, "check", "-m", "qubit-zx.json",
                          "--samples", "1000", "--seed", "7")
    assert code == 0
    assert out == "ok\n"


# ---------------------------------------------------------------------------
# the remaining commands


def test_parse_human(capsys):
    code, out, _ = invoke(capsys, "parse", "-f", "N(|- p) K (|- q)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(N((|- p)) K (|- q))"
    assert "kind: assertive" in lines
    assert "quantum: yes" in lines


def test_parse_radical_fallback(capsys):
    code, out, _ = invoke(capsys, "parse", "-f", "p & (q | ~r)",
                          "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "radical"
    assert payload["canonical"] == "(p & (q | ~r))"


def test_parse_reports_fragment_violations(capsys):
    code, out, _ = invoke(capsys, "parse", "-f", "(|- p) C (|- q)",
                          "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["quantum"] is False
    assert payload["violations"] == [{"path": [], "reason": "forbidden-connective"}]


def test_extension_structured(capsys):
    code, out, _ = invoke(capsys, "extension", "-m", "qubit-zx",
                          "-f", "|- az", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 1
    assert payload["matrix"] == [[[1.0, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [0.0, 0.0]]]


def test_extension_structured_of_a_block_sum_model(tmp_path, capsys):
    # the rank of an AQ over N of a K result is a plain int, so the
    # structured output is JSON
    rng = np.random.default_rng(20140901)
    model, _ = blocksum.draw(rng, rng, 6, 3, (12, 16))
    path = tmp_path / "blocksum.json"
    path.write_text(json.dumps(blocksum.document(model, rng)))
    code, out, err = invoke(capsys, "extension", "-m", str(path),
                            "-f", "N(|- a0 K |- a1) AQ |- a2", "--format", "structured")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["dim"] == 6 and type(payload["rank"]) is int
    assert np.array(payload["matrix"]).shape == (6, 6, 2)


def test_extension_human(capsys):
    code, out, _ = invoke(capsys, "extension", "-m", "qubit-zx", "-f", "|- ax")
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["formula: (|- ax)", "dim: 2  rank: 1"]
    # the matrix's padding follows numpy's rounding of zeros, so only its
    # shape and entries are checked
    assert len(lines) == 4
    assert re.findall(r"0\.5", out) == ["0.5"] * 4


def test_eval_and_justify_structured(capsys):
    code, out, _ = invoke(capsys, "eval", "-m", "qubit-zx", "-s", "z+",
                          "-f", "az & ~ax", "--format", "structured")
    assert code == 0
    assert json.loads(out) == {"state": "z+", "formula": "(az & ~ax)",
                               "value": "Undefined"}
    code, out, _ = invoke(capsys, "justify", "-m", "qubit-zx", "-s", "z-",
                          "-f", "N(|- az)", "--format", "structured")
    assert code == 0
    assert json.loads(out) == {"state": "z-", "formula": "N((|- az))", "value": "J"}


def test_parse_human_violation_lines(capsys):
    code, out, _ = invoke(capsys, "parse", "-f", "(|- p) C (|- (p & q))")
    assert code == 0
    assert out.splitlines() == [
        "((|- p) C (|- (p & q)))",
        "kind: assertive",
        "quantum: no",
        "  violation at path []: forbidden-connective",
        "  violation at path [1]: molecular-radical",
    ]


def test_lattice_human_distributive(capsys):
    code, out, _ = invoke(capsys, "lattice", "-m", "qubit-zx",
                          "--atoms", "az", "--depth", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "classes: 4"
    assert lines[-1] == "distributivity: holds"
    assert all(line.endswith(": ok") for line in lines[3:-1])


def test_lattice_human_summary(capsys):
    code, out, _ = invoke(capsys, "lattice", "-m", "qubit-zx",
                          "--atoms", "az,ax", "--depth", "3")
    assert code == 0
    assert "classes: 6" in out
    assert "orthomodular: ok" in out
    assert "order-isomorphism: ok" in out
    assert "distributivity: violated" in out


def test_lattice_structured(capsys):
    code, out, _ = invoke(capsys, "lattice", "-m", "qubit-zx",
                          "--atoms", "az", "--depth", "2",
                          "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["lattice"]["elements"]) == 4
    assert payload["distributivity_violation"] is None
    assert all(law["holds"] for law in payload["laws"])


def test_export_structured_round_trips_with_lattice(capsys):
    code, out, _ = invoke(capsys, "export", "-m", "qubit-zx",
                          "--atoms", "az,ax", "--depth", "3")
    assert code == 0
    document = json.loads(out)
    assert document["bottom"] != document["top"]
    assert len(document["elements"]) == 6


def test_export_ignores_a_repeated_atom(capsys):
    repeated = invoke(capsys, "export", "-m", "qubit-zx", "--atoms", "az,az,ax", "--depth", "3")
    once = invoke(capsys, "export", "-m", "qubit-zx", "--atoms", "az,ax", "--depth", "3")
    assert repeated == once
    assert repeated[0] == 0


def test_export_dot(capsys):
    code, out, _ = invoke(capsys, "export", "-m", "qubit-zx",
                          "--atoms", "az", "--depth", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_check_with_consistent_overlay(capsys):
    code, out, _ = invoke(capsys, "check", "-m", "qubit-zx", "--samples", "50",
                          "--overlay", str(FIXTURES / "overlay-consistent.json"))
    assert code == 0
    assert out == "ok\n"


def test_check_with_contradicting_overlay(capsys):
    code, out, _ = invoke(capsys, "check", "-m", "qubit-zx", "--samples", "50",
                          "--overlay", str(FIXTURES / "overlay-contradicting.json"))
    assert code == 1
    assert "contradicts-quantum-assignment" in out


def test_check_structured_deterministic(capsys):
    first = invoke(capsys, "check", "-m", "qubit-zx", "--samples", "100",
                   "--seed", "5", "--format", "structured")
    second = invoke(capsys, "check", "-m", "qubit-zx", "--samples", "100",
                    "--seed", "5", "--format", "structured")
    assert first == second
    payload = json.loads(first[1])
    assert payload["cc"]["ok"] is True
    assert payload["seed"] == 5


def test_model_from_explicit_path(tmp_path, capsys):
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(bundled_model_document("qubit-zx")))
    code, out, _ = invoke(capsys, "eval", "-m", str(path), "-s", "z+", "-f", "az")
    assert code == 0
    assert out == "True\n"


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_unknown_state_is_domain_error(capsys):
    code, _, err = invoke(capsys, "eval", "-m", "qubit-zx", "-s", "y+", "-f", "az")
    assert code == 1
    assert "error:" in err


def test_bad_formula_is_domain_error(capsys):
    code, _, err = invoke(capsys, "justify", "-m", "qubit-zx",
                          "-s", "z+", "-f", "|- p K")
    assert code == 1
    assert "position 7" in err


def test_non_quantum_formula_is_domain_error(capsys):
    code, _, err = invoke(capsys, "extension", "-m", "qubit-zx",
                          "-f", "(|- az) C (|- ax)")
    assert code == 1
    assert "quantum fragment" in err


def test_missing_model_file_is_domain_error(capsys):
    code, _, err = invoke(capsys, "eval", "-m", "nosuch.json",
                          "-s", "z+", "-f", "az")
    assert code == 1
    assert "model not found" in err


def test_missing_required_option_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "eval", "-m", "qubit-zx", "-f", "az")
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "justify" in out


def test_bad_format_choice_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "eval", "-m", "qubit-zx", "-s", "z+",
                        "-f", "az", "--format", "dot")
    assert code == 2


def test_depth_zero_is_domain_error(capsys):
    code, _, err = invoke(capsys, "lattice", "-m", "qubit-zx",
                          "--atoms", "az", "--depth", "0")
    assert code == 1
    assert "depth" in err


def test_empty_atom_list_is_domain_error(capsys):
    code, out, err = invoke(capsys, "lattice", "-m", "qubit-zx",
                            "--atoms", ",", "--depth", "1")
    assert code == 1
    assert out == ""
    assert err == "error: --atoms must list at least one atom name\n"


def test_overlay_that_is_not_json_is_domain_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2, "states": ')
    code, out, err = invoke(capsys, "check", "-m", "qubit-zx", "--overlay", str(path))
    assert (code, out) == (1, "")
    assert err == "error: Expecting value: line 1 column 22 (char 21)\n"


def test_missing_overlay_is_domain_error(tmp_path, capsys):
    path = tmp_path / "no-such-overlay.json"
    code, out, err = invoke(capsys, "check", "-m", "qubit-zx", "--overlay", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(path) in err


def test_unallocatable_dim_is_domain_error(tmp_path, capsys):
    # a 10^8 x 10^8 complex matrix needs 142 PiB; the dim cap rejects the
    # document before anything is allocated
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 100_000_000, "states": {},
                                "properties": {"E": {"span": []}},
                                "atoms": {"a": "E"}}))
    code, out, err = invoke(capsys, "check", "-m", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_memory_error_is_domain_error(monkeypatch, capsys):
    def exhausted(value):
        raise MemoryError("Unable to allocate 142. PiB")

    monkeypatch.setattr(pragmaql.cli, "_load_model_arg", exhausted)
    code, out, err = invoke(capsys, "check", "-m", "qubit-zx")
    assert (code, out, err) == (1, "", "error: Unable to allocate 142. PiB\n")


def test_unsaturated_lattice_is_domain_error(tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(seeded_c3_triple(0)))
    code, out, err = invoke_process("lattice", "-m", str(path), "--atoms", "a0,a1,a2",
                                    "--depth", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: generation did not saturate") and err.count("\n") == 1


def test_coarse_tolerance_lattice_is_domain_error(tmp_path):
    # at eps 0.05, class_tol 0.5 merges the zero projector into the class of
    # ax when ax comes first; with az first the lattice exists, laws failing
    doc = bundled_model_document("qubit-zx")
    doc["eps"] = 0.05
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke_process("lattice", "-m", str(path), "--atoms", "ax,az",
                                    "--depth", "2")
    assert (code, out) == (1, "")
    assert err == ("error: no class has rank 0: class_tol 0.5 merged the zero "
                   "projector into another class\n")
    code, out, err = invoke_process("lattice", "-m", str(path), "--atoms", "az,ax",
                                    "--depth", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[:4] == ["classes: 6", "bottom: N(((|- az) AQ (|- ax)))",
                                    "top: ((|- ax) AQ (|- az))", "involution: ok"]
    assert "order-isomorphism: FAIL at ('order', 1, 0)" in out.splitlines()


def test_negative_samples_is_domain_error(capsys):
    for fmt in ("human", "structured"):
        code, out, err = invoke(capsys, "check", "-m", "qubit-zx",
                                "--samples", "-5", "--format", fmt)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "samples" in err


def test_negative_seed_is_domain_error(capsys):
    code, out, err = invoke(capsys, "check", "-m", "qubit-zx", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_model_with_nan_eps_is_domain_error(tmp_path):
    doc = bundled_model_document("qubit-zx")
    doc["eps"] = float("nan")
    path = tmp_path / "nan-eps.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke_process("lattice", "-m", str(path),
                                    "--atoms", "az,ax", "--depth", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "eps" in err


def test_model_with_nan_state_is_domain_error(tmp_path, capsys):
    doc = bundled_model_document("qubit-zx")
    doc["states"]["z+"] = [[float("nan"), 0], [0, 0]]
    path = tmp_path / "nan-state.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "check", "-m", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "z+" in err


def test_model_with_an_entry_beyond_float_range_is_domain_error(tmp_path):
    doc = bundled_model_document("qubit-zx")
    doc["states"]["z+"] = [[10 ** 400, 0], [0, 0]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke_process("check", "-m", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "z+" in err


def test_model_with_a_state_norm_beyond_the_float_limit_is_domain_error(tmp_path, capsys):
    # the norm overflows: one error line, with no numpy warning before it,
    # under the warning policy of pytest and of the CI console-script step
    doc = bundled_model_document("qubit-zx")
    doc["states"]["z+"] = [[1e200, 0], [0, 0]]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    expected = "error: state 'z+': state norm inf is not 1 within 1e-06\n"
    assert invoke(capsys, "check", "-m", str(path)) == (1, "", expected)
    proc = subprocess.run([sys.executable, "-m", "pragmaql.cli", "check", "-m", str(path)],
                          env={**child_env(), "PYTHONWARNINGS": "error::RuntimeWarning"},
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", expected)


def test_deeply_nested_formula_is_domain_error():
    formula = "N " * 5000 + "|- az"
    for argv in (["parse", "-f", formula],
                 ["justify", "-m", "qubit-zx", "-s", "z+", "-f", formula]):
        code, _, err = invoke_process(*argv)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err


def test_closed_stdout_exits_quietly():
    """A reader that stops early (``| head -c 100``) is not an input error:
    exit 1 with nothing on stderr, not even an "Exception ignored" line."""
    # about 114 KB of output, more than a pipe buffer holds
    argv = ["lattice", "-m", "ququart-planes", "--atoms", "bl,bd,bc", "--depth", "2",
            "--format", "structured"]
    proc = subprocess.Popen([sys.executable, "-m", "pragmaql.cli", *argv], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=30)
    finally:
        proc.kill()
        proc.wait()
    assert head.startswith(b"{")
    assert err == b""
    assert proc.returncode == 1


# the parse and usage commands of perfbench/cli_session.py's pool, with their exit codes
NUMPY_FREE = [
    (["parse", "-f", "|- az"], 0),
    (["parse", "-f", "N(|- az) K |- ax", "--format", "structured"], 0),
    (["parse", "-f", "(|- a K"], 1),
    (["parse"], 2),
    (["lattice", "-m", "qubit-zx", "--atoms", "az", "--depth", "x"], 2),
    (["justify", "-m", "qubit-zx", "-s", "z+", "-f", "|- az", "--format", "dot"], 2),
    (["frobnicate"], 2),
]


def test_parse_and_usage_errors_do_not_import_numpy():
    # in a child interpreter: this one imported numpy long ago
    script = f"""
import contextlib, io, sys
from pragmaql.cli import run
for argv, expected in {NUMPY_FREE!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) == expected, argv
    assert "numpy" not in sys.modules, argv
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = run(["eval", "-m", "qubit-zx", "-s", "z+", "-f", "az"])
assert "numpy" in sys.modules
print(code, out.getvalue(), end="")
"""
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "0 True\n"


def test_parse_of_a_chain_nested_past_the_recursion_limit_is_one_error_line(capsys):
    # a well-formed N chain 900 deep: the parser reports where it ran out of
    # stack as a syntax error, with no traceback
    code, out, err = invoke(capsys, "parse", "-f", "N(" * 900 + "(|- az)" + ")" * 900)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: formula nested too deeply at position \d+\n", err)


# ---------------------------------------------------------------------------
# seeded malformed documents

# values a fault puts in place of one node: extreme and non-finite numbers,
# and every other JSON type
ODD_VALUES = [1e308, -1e308, 5e-324, 0, -1, 2**70, float("inf"), float("nan"), 2.5, "x", "",
              None, True, [], {}, [[1, 0]], {"span": []}]


def mutated(document, rng):
    """The JSON text of ``document`` with one seeded fault at a node drawn
    from all of its nodes: the node replaced by an odd value, deleted, or
    nested in lists, 3 or 40 deep (a value of the wrong shape) or 3,000 deep
    (past what the JSON decoder reads)."""
    doc = json.loads(json.dumps(document))
    nodes = []   # (container, key) of every node but the root

    def walk(node):
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in list(keys):
            nodes.append((node, key))
            if isinstance(node[key], (dict, list)):
                walk(node[key])

    walk(doc)
    container, key = nodes[int(rng.integers(len(nodes)))]
    fault = int(rng.integers(3))
    if fault == 0:
        container[key] = ODD_VALUES[int(rng.integers(len(ODD_VALUES)))]
    elif fault == 1:
        del container[key]
    else:
        depth = (3, 40, 3000)[int(rng.integers(3))]
        inner, container[key] = json.dumps(container[key]), "nested"
        return json.dumps(doc).replace('"nested"', "[" * depth + inner + "]" * depth, 1)
    return json.dumps(doc)


def run_quietly(argv):
    """``run(argv)`` with RuntimeWarning an error: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", range(4))
def test_mutated_model_and_overlay_documents_give_one_error_line_at_most(tmp_path, seed):
    # every command that reads a model, and check with an overlay, on
    # seeded faults: exit 0 or 1, and nothing on stderr but one error line
    rng = np.random.default_rng([seed, 10])
    model = bundled_model_document("qubit-zx")
    overlay = json.loads((FIXTURES / "overlay-consistent.json").read_text())
    path = tmp_path / "document.json"
    for k in range(24):
        is_model = k % 3 != 2
        path.write_text(mutated(model if is_model else overlay, rng))
        if is_model:
            commands = [["check", "-m", str(path), "--samples", "8", "--seed", "1"],
                        ["lattice", "-m", str(path), "--atoms", "az,ax", "--depth", "1"],
                        ["justify", "-m", str(path), "-s", "z+", "-f", "|- az"],
                        ["eval", "-m", str(path), "-s", "x+", "-f", "az"],
                        ["extension", "-m", str(path), "-f", "(|- az) K (|- ax)"]]
        else:
            commands = [["check", "-m", "qubit-zx", "--overlay", str(path), "--samples", "8"]]
        for argv in commands:
            code, _, err = run_quietly(argv)
            assert code in (0, 1), (argv, path.read_text()[:200])
            assert err == "" or re.fullmatch(r"error: [^\n]*\n", err), (argv, err)
