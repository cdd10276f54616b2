"""Planted faults that named tests must catch: mutation analysis on a fixed list.

Run from anywhere, with pytest and hypothesis installed:

    python3 tests/faults.py

Each fault is (name, file under src/, exact old text, new text, the tests
that must catch it).  The script copies src/ to a temporary directory and
first runs every named test against that unchanged copy, which must pass.
Then, for each fault, it asserts that the old text occurs exactly once (so a
refactor that moves the code fails here instead of passing silently), plants
the fault in the copy, runs the named tests with -x against it and restores
the file.  At least one of the tests must fail.  pytest does not collect this
file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent


class Fault(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


FAULTS = (
    Fault(
        "product-laws-one-stage-late",
        "tsl/measures.py",
        "self.atom_numerators[min(m, self.prefix_length)] for m in range(depth)",
        "self.atom_numerators[min(m + 1, self.prefix_length)] for m in range(depth)",
        ("tests/test_montecarlo_properties.py::test_exact_product_law_matches_the_stagewise_reference",
         "tests/test_montecarlo_properties.py::test_integer_laws_equal_the_fraction_step_reference"),
    ),
    Fault(
        "absorption-without-transient-visits",
        "tsl/measures.py",
        "visits[t] += y * w",
        "pass",
        ("tests/test_measures_properties.py::test_absorption_from_the_law_after_a_prefix_matches_the_dense_reference",
         "tests/test_measures_properties.py::test_chain_solves_match_the_dense_reference"),
    ),
    Fault(
        "absorbing-set-from-the-stage-itself",
        "tsl/montecarlo.py",
        "later.update(i for i, _ in noise.atom_ids[min(m + 1, plen)])",
        "later.update(i for i, _ in noise.atom_ids[min(m, plen)])",
        ("tests/test_montecarlo_properties.py::test_exact_absorption_matches_the_all_ids_reference",
         "tests/test_montecarlo_properties.py::test_trial_kernel_matches_the_full_draw_reference"),
    ),
    Fault(
        "window-cycle-shifted",
        "tsl/measures.py",
        "laws = [cycle[(-k - depth - 1) % len(cycle)] for k in below]",
        "laws = [cycle[(-k - depth) % len(cycle)] for k in below]",
        ("tests/test_solver_properties.py::test_cyclic_families_solve_the_recursion_externally",
         "tests/test_solver_properties.py::test_window_laws_match_the_convolution_reference"),
    ),
    Fault(
        "witness-steps-with-the-next-stage",
        "tsl/solver.py",
        "stage = stages[min(l - 1, noise.prefix_length)]",
        "stage = stages[min(l, noise.prefix_length)]",
        ("tests/test_solver_properties.py::test_witness_matches_the_convolution_reference",),
    ),
    Fault(
        "subgroup-search-closes-no-pairs",
        "tsl/algebra.py",
        "for r in range(2, max_gen + 1):",
        "for r in range(2, 2):",
        ("tests/test_algebra_properties.py::test_subgroups_of_the_ambient_semigroup_match_the_reference",),
    ),
    Fault(
        "entry-law-at-state-0",
        "tsl/solver.py",
        "at[image[x]] = at.get(image[x], 0) + n",
        "at[image[0]] = at.get(image[0], 0) + n",
        ("tests/test_solver.py::test_entry_point_laws_sum_numerators_by_image_without_act",
         "tests/test_solver_properties.py::test_window_laws_match_the_convolution_reference"),
    ),
    Fault(
        "cesaro-with-another-class-absorption",
        "tsl/measures.py",
        "        (index[chain.states[i]], c.absorption.numerator * w.numerator,\n"
        "         c.absorption.denominator * w.denominator)\n"
        "        for c in classes for i, w in c.stationary\n",
        "        (index[chain.states[i]], b.absorption.numerator * w.numerator,\n"
        "         b.absorption.denominator * w.denominator)\n"
        "        for b, c in zip((*classes[-1:], *classes[:-1]), classes)\n"
        "        for i, w in c.stationary\n",
        ("tests/test_measures.py::test_limit_analysis_unbalanced_weights",
         "tests/test_acceptance.py::test_criterion_3_limit_analysis",
         "tests/test_solver_properties.py::test_window_laws_match_the_convolution_reference"),
    ),
    Fault(
        "window-push-through-right-products",
        "tsl/measures.py",
        "left = {a: closure.left_row(a) for a in prefix_ids}",
        "left = {a: [closure.mul(b, a) for b in range(closure.size)] for a in prefix_ids}",
        ("tests/test_measures.py::test_limit_analysis_pushes_the_prefix",
         "tests/test_measures.py::test_limit_analysis_window_covers_long_prefixes",
         "tests/test_solver_properties.py::test_window_laws_match_the_convolution_reference"),
    ),
    Fault(
        "tail-check-without-the-tail-denominator",
        "tsl/measures.py",
        "if not _same_law(_left_step(tail, law, composed), law):",
        "if not _same_law((_left_step(tail, law, composed)[0], law[1]), law):",
        ("tests/test_measures.py::test_limit_analysis_convolves_only_through_the_prefix",),
    ),
    Fault(
        "generators-past-the-cap",
        "tsl/algebra.py",
        "    if cap is not None and k > cap:\n"
        '        raise CapacityError(f"closure exceeded the cap of {cap} elements", cap=cap)\n',
        "",
        ("tests/test_algebra.py::test_generate_closure_caps_the_generators_themselves",
         "tests/test_algebra_properties.py::test_closure_matches_the_all_pairs_reference"),
    ),
    Fault(
        "byte-path-at-257-states",
        "tsl/algebra.py",
        "small = space.size <= 256",
        "small = space.size <= 257",
        ("tests/test_algebra_properties.py::test_closure_past_256_states_matches_the_byte_closure",),
    ),
)


def run_tests(src: Path, tests, *extra: str) -> int:
    """Run the named tests against the package in `src`; return pytest's exit code."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # run in the copy, so hypothesis keeps its example database there
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *extra]
    argv += [str(REPO / t) for t in tests]
    return subprocess.run(argv, cwd=src.parent, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    missed = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = list(dict.fromkeys(t for f in FAULTS for t in f.tests))
        if run_tests(src, tests) != 0:
            print("the named tests fail on the unchanged source")
            return 1
        for fault in FAULTS:
            path = src / fault.file
            text = (REPO / "src" / fault.file).read_text(encoding="utf-8")
            count = text.count(fault.old)
            if count != 1:
                print(f"{fault.name}: old text occurs {count} times in {fault.file}")
                missed.append(fault.name)
                continue
            path.write_text(text.replace(fault.old, fault.new), encoding="utf-8")
            code = run_tests(src, fault.tests, "-x")
            path.write_text(text, encoding="utf-8")
            # exit code 1: tests ran and one failed; anything else is no catch
            caught = code == 1
            print(f"{fault.name}: {'caught' if caught else f'NOT caught (pytest exit {code})'}")
            if not caught:
                missed.append(fault.name)
    print(f"{len(FAULTS) - len(missed)} of {len(FAULTS)} faults caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
