"""Command-line front end.

One command per process: parse, eval (partial truth), extension,
justify, lattice (generate + verify), check (soundness + overlay), and
export (lattice document only).  Results go to stdout, diagnostics to
stderr; exit code 0 on success, 1 on domain errors or failed checks,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ModelError, ParseError, PragmaQLError
from .formula import parse_assertive, parse_radical, print_formula, quantum_fragment_check

if TYPE_CHECKING:
    from .model import Model

# Each command imports the numeric modules it uses, so that ``parse`` and
# usage errors run without loading numpy.


def _load_model_arg(value: str) -> Model:
    from .model import bundled_model, bundled_model_names, load_model_file

    path = Path(value)
    if path.exists():
        return load_model_file(path)
    name = value[:-5] if value.endswith(".json") else value
    if name in bundled_model_names():
        return bundled_model(name)
    raise ModelError(f"model not found: {value!r} is neither a file nor a "
                     f"bundled model ({', '.join(bundled_model_names())})")


def _parse_atoms(csv: str) -> list[str]:
    atoms = [a.strip() for a in csv.split(",") if a.strip()]
    if not atoms:
        raise ValueError("--atoms must list at least one atom name")
    return atoms


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# commands


def _cmd_parse(args) -> int:
    try:
        ast = parse_assertive(args.formula)
        kind = "assertive"
    except ParseError as assertive_error:
        try:
            ast = parse_radical(args.formula)
            kind = "radical"
        except ParseError as radical_error:
            # report whichever grammar got further into the input
            deeper = (radical_error
                      if radical_error.position > assertive_error.position
                      else assertive_error)
            raise deeper from None
    canonical = print_formula(ast)
    quantum = None
    violations = []
    if kind == "assertive":
        report = quantum_fragment_check(ast)
        quantum = report.is_quantum
        violations = [{"path": list(v.path), "reason": v.reason}
                      for v in report.violations]
    if args.format == "structured":
        _emit_json({"kind": kind, "canonical": canonical,
                    "quantum": quantum, "violations": violations})
    else:
        print(canonical)
        print(f"kind: {kind}")
        if quantum is not None:
            print(f"quantum: {'yes' if quantum else 'no'}")
            for v in violations:
                print(f"  violation at path {v['path']}: {v['reason']}")
    return 0


def _cmd_eval(args) -> int:
    from .evaluation import sigma

    model = _load_model_arg(args.model)
    ast = parse_radical(args.formula)
    value = sigma(model, args.state, ast)
    if args.format == "structured":
        _emit_json({"state": args.state, "formula": print_formula(ast),
                    "value": str(value)})
    else:
        print(value)
    return 0


def _cmd_extension(args) -> int:
    import numpy as np

    from .evaluation import pragmatic_extension
    from .hilbert import encode_array

    model = _load_model_arg(args.model)
    ast = parse_assertive(args.formula)
    p = pragmatic_extension(model, ast)
    if args.format == "structured":
        _emit_json({"formula": print_formula(ast), "dim": p.dim,
                    "rank": p.rank, "matrix": encode_array(p.matrix)})
    else:
        print(f"formula: {print_formula(ast)}")
        print(f"dim: {p.dim}  rank: {p.rank}")
        with np.printoptions(precision=6, suppress=True):
            print(p.matrix)
    return 0


def _cmd_justify(args) -> int:
    from .evaluation import justify

    model = _load_model_arg(args.model)
    ast = parse_assertive(args.formula)
    value = justify(model, args.state, ast)
    if args.format == "structured":
        _emit_json({"state": args.state, "formula": print_formula(ast),
                    "value": str(value)})
    else:
        print(value)
    return 0


def _law_payload(lat):
    from .lattice import (
        find_distributivity_violation,
        verify_isomorphism,
        verify_ortholattice,
        verify_orthomodular,
    )

    reports = verify_ortholattice(lat) + [verify_orthomodular(lat),
                                          verify_isomorphism(lat)]
    violation = find_distributivity_violation(lat)
    return reports, violation


def _cmd_lattice(args) -> int:
    from .lattice import export_lattice, generate_quotient

    model = _load_model_arg(args.model)
    lat = generate_quotient(model, _parse_atoms(args.atoms), args.depth)
    if args.format == "dot":
        print(export_lattice(lat, "dot"), end="")
        return 0
    reports, violation = _law_payload(lat)
    if args.format == "structured":
        _emit_json({
            "lattice": export_lattice(lat, "structured"),
            "laws": [{"law": r.law, "holds": r.holds,
                      "counterexample": list(r.counterexample)
                      if r.counterexample else None} for r in reports],
            "distributivity_violation": list(violation) if violation else None,
        })
        return 0
    print(f"classes: {len(lat)}")
    print(f"bottom: {lat.elements[lat.bottom].label}")
    print(f"top: {lat.elements[lat.top].label}")
    for r in reports:
        status = "ok" if r.holds else f"FAIL at {r.counterexample}"
        print(f"{r.law}: {status}")
    if violation is None:
        print("distributivity: holds")
    else:
        a, b, c = violation
        labels = tuple(lat.elements[i].label for i in (a, b, c))
        print(f"distributivity: violated at {labels}")
    return 0


def _cmd_check(args) -> int:
    from .evaluation import check_cc, load_overlay, validate_overlay

    model = _load_model_arg(args.model)
    sections = [("cc", check_cc(model, samples=args.samples, seed=args.seed))]
    if args.overlay is not None:
        document = json.loads(Path(args.overlay).read_text())
        sections.append(("overlay", validate_overlay(model, load_overlay(document))))
    all_ok = all(report.ok for _, report in sections)
    if args.format == "structured":
        _emit_json({
            "samples": args.samples,
            "seed": args.seed,
            **{name: {"ok": report.ok,
                      "findings": [{"severity": f.severity, "code": f.code,
                                    "message": f.message}
                                   for f in report.findings]}
               for name, report in sections},
        })
    elif all_ok:
        print("ok")
    else:
        for name, report in sections:
            for f in report.findings:
                print(f"{name} {f.severity} {f.code}: {f.message}")
    return 0 if all_ok else 1


def _cmd_export(args) -> int:
    from .lattice import export_lattice, generate_quotient

    model = _load_model_arg(args.model)
    lat = generate_quotient(model, _parse_atoms(args.atoms), args.depth)
    if args.format == "dot":
        print(export_lattice(lat, "dot"), end="")
    else:
        _emit_json(export_lattice(lat, "structured"))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pragmaql",
        description="Evaluate truth, justification, and quotient lattices "
                    "of the assertive quantum language over model files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, model=True, formula=False, state=False,
            atoms=False, formats=("human", "structured")):
        p = sub.add_parser(name, help=help_text)
        if model:
            p.add_argument("-m", "--model", required=True,
                           help="model file path or bundled model name")
        if formula:
            p.add_argument("-f", "--formula", required=True, help="formula text")
        if state:
            p.add_argument("-s", "--state", required=True, help="state name")
        if atoms:
            p.add_argument("--atoms", required=True,
                           help="comma-separated atom names")
            p.add_argument("--depth", type=int, required=True,
                           help="connective nesting depth for enumeration")
        p.add_argument("--format", choices=list(formats), default=formats[0])
        p.set_defaults(func=func)
        return p

    add("parse", _cmd_parse, "parse a formula and print its canonical form",
        model=False, formula=True)
    add("eval", _cmd_eval, "partial truth value of a radical in a state",
        formula=True, state=True)
    add("extension", _cmd_extension,
        "pragmatic extension (projector) of a quantum formula", formula=True)
    add("justify", _cmd_justify,
        "justification value of a quantum formula in a state",
        formula=True, state=True)
    add("lattice", _cmd_lattice,
        "generate the quotient lattice and verify its laws",
        atoms=True, formats=("human", "structured", "dot"))
    check = add("check", _cmd_check,
                "soundness of justification for truth, plus overlay checks")
    check.add_argument("--samples", type=int, default=1000,
                       help="random states to test (default 1000)")
    check.add_argument("--seed", type=int, default=0,
                       help="random seed (default 0)")
    check.add_argument("--overlay", help="overlay document to validate")
    add("export", _cmd_export, "emit the quotient lattice as a document",
        atoms=True, formats=("structured", "dot"))
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader closed stdout: not an input error
        raise
    except (PragmaQLError, ValueError, OSError,  # a json.JSONDecodeError is a ValueError
            RecursionError,  # input nested too deeply
            MemoryError) as exc:  # a dim too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (say, ``| head``).  As Python's ``signal``
        # documentation advises for SIGPIPE, point stdout at devnull so that
        # the flush at interpreter exit cannot fail again, and exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
