import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pragmaql.cli
from pragmaql import bundled_model_document
from pragmaql.cli import run

from helpers import seeded_c3_triple

FIXTURES = Path(__file__).parent / "fixtures"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_process(*argv):
    """Run the CLI in a child interpreter, so a hang times out and a
    traceback reaches stderr."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pragmaql.cli", *argv], env=env,
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


def test_negative_samples_is_domain_error(capsys):
    for fmt in ("human", "structured"):
        code, out, err = invoke(capsys, "check", "-m", "qubit-zx",
                                "--samples", "-5", "--format", fmt)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "samples" in err


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


def test_deeply_nested_formula_is_domain_error():
    formula = "N " * 5000 + "|- az"
    for argv in (["parse", "-f", formula],
                 ["justify", "-m", "qubit-zx", "-s", "z+", "-f", formula]):
        code, _, err = invoke_process(*argv)
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err
