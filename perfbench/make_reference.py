"""Regenerate ``reference.json``, the stored canary outputs the benchmark
compares against.  Run it only when a scheme change is intended:

    python3 perfbench/make_reference.py
"""

import json

import run
import workloads


def main() -> None:
    pkg = run.load_package()
    ref = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = run.HERE / "_work" / f"{name}-reference"
        workdir.mkdir(parents=True, exist_ok=True)
        observed = cls(0, "full", workdir).canary(pkg)
        ref[name] = {k: [float(x) for x in v.ravel()] for k, v in observed.items()}
    workloads.REFERENCE_PATH.write_text(json.dumps(ref) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
