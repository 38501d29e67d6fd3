"""Write perfbench/references.json: the exact answers of every workload,
computed in one process from the fiblie sources under src/.

Usage (from the repository root): python3 perfbench/make_references.py

The stored answers are the benchmark's regression oracle; regenerate them
only for a change that is meant to alter an answer, and say so.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, git_commit

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    answers = {name: solve(0)[0] for name, solve in workloads.WORKLOADS.items()}
    doc = {"commit": git_commit(), "workloads": answers}
    (HERE / "references.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
