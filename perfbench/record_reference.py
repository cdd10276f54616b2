"""Write reference.json: every workload command's output at the reference seed.

    python3 perfbench/record_reference.py

Run once, on the commit that defines the benchmark; later commits are checked
against the file it wrote (see check.py).  CLI output bytes are not meant to
change, so a later run of this script should reproduce the file exactly.
"""

from __future__ import annotations

import json
import os

import check
import ladder
import probe
import run


def main() -> None:
    cli, paths = probe.setup()
    reference = {}
    for workload in ladder.WORKLOADS:
        cmds = run.commands(
            workload, paths, check.REFERENCE_SEED, ladder.TRIALS.get(workload, 0)
        )
        for label, argv in cmds:
            _, rc, out, err = run.run_command(cli.main, argv, None)
            reference[label] = check.reference_entry(argv, rc, out, err)
    with open(os.path.join(probe.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
