"""Record the reference answers in references.json from the current code.

Run from the root of a checkout, only on a commit whose outputs are known
to be right::

    python3 perfbench/record.py

It stores, for each bundled model at depths 1-3, the class count and
whether the lattice is distributive, and for every command in the
cli-session pool its stdout, stderr (the work directory written as
``{work}``) and exit code.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pragmaql as pq  # noqa: E402

import cli_session  # noqa: E402
import lattice_grow  # noqa: E402


def main() -> None:
    lattice = {}
    for name, depth in lattice_grow.BUNDLED:
        model = pq.bundled_model(name)
        lat = pq.generate_quotient(model, list(model.atom_map), depth)
        lattice[f"{name}/d{depth}"] = {
            "classes": len(lat),
            "distributive": pq.find_distributivity_violation(lat) is None,
        }
    work = cli_session.prepare(ROOT)
    cli = {}
    for key, argv in cli_session.pool(work):
        done = cli_session.spawn(argv, work, timeout=60)
        cli[key] = {"stdout": done.stdout, "stderr": done.stderr.replace(str(work), "{work}"),
                    "exit": done.returncode}
    out = HERE / "references.json"
    out.write_text(json.dumps({"lattice": lattice, "cli": cli}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(lattice)} lattices, {len(cli)} commands)")


if __name__ == "__main__":
    main()
