"""Output bytes of the benchmark's commands and of the problem ladder, pinned.

Every command runs in-process through `tsl.cli.main`.  The benchmark's own
files are only read: `perfbench/ladder.py` and `perfbench/check.py` are
executed from source, so no bytecode is written beside them.
"""

from __future__ import annotations

import json
import runpy

from conftest import REPO
from record_pins import PINS, pins, run

PERFBENCH = REPO / "perfbench"


def test_benchmark_commands_match_the_reference_at_its_seed(tmp_path):
    ladder = runpy.run_path(str(PERFBENCH / "ladder.py"))
    check = runpy.run_path(str(PERFBENCH / "check.py"))
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    paths = ladder["write_problems"](str(REPO), str(tmp_path))
    seed = check["REFERENCE_SEED"]
    failures, labels = [], []
    for workload, templates in ladder["WORKLOADS"].items():
        trials = ladder["TRIALS"].get(workload, 0)
        for template in templates:
            argv = [template[0], paths[template[1]]]
            argv += [a.format(seed=seed, trials=trials) for a in template[2:]]
            labels.append(" ".join(template))
            reason = check["failure"](reference.get(labels[-1]), argv, *run(argv))
            if reason is not None:
                failures.append(f"{labels[-1]}: {reason}")
    assert sorted(labels) == sorted(reference)
    assert failures == []


def test_ladder_output_bytes_match_their_pins(tmp_path):
    expected = json.loads(PINS.read_text(encoding="utf-8"))
    assert pins(str(tmp_path)) == expected
