"""Problem-file grammar and the command line front end."""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

import pytest

from tsl import (
    NoiseSpec,
    ProbMeasure,
    SpecError,
    TransformationElement,
    compile_problem,
    element_carrier,
    exact_product_law,
    main,
    parse_spec,
    serialize_spec,
)

import tsl.cli
import tsl.context
import tsl.measures
import tsl.montecarlo

from helpers import GEN_A, count_calls, run_cli, two_map_noise

HALF = Fraction(1, 2)

THREE_STATE_TEXT = (
    "space 3\n"
    "gen s1 = 2 1 2\n"
    "gen s2 = 3 3 1\n"
    "noise iid s1:1/2 s2:1/2\n"
)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------- parsing


def test_parse_round_trip_on_the_bundled_specs(specs_dir):
    for path in sorted(specs_dir.glob("*.tsl")):
        spec = parse_spec(path.read_text())
        assert parse_spec(serialize_spec(spec)) == spec
        assert serialize_spec(parse_spec(serialize_spec(spec))) == serialize_spec(spec)


def test_serialization_is_canonical(specs_dir):
    spec = parse_spec((specs_dir / "three_state.tsl").read_text())
    assert serialize_spec(spec) == THREE_STATE_TEXT


def test_comments_blanks_and_zero_weights_are_dropped():
    spec = parse_spec(
        "# leading comment\n"
        "\n"
        "space 2   # trailing comment\n"
        "gen a = 1 2\n"
        "gen b = 2 1\n"
        "noise iid a:1 b:0\n"
    )
    assert spec.mode == "semigroup"
    assert spec.size == 2
    assert spec.generators == (("a", (0, 1)), ("b", (1, 0)))
    assert spec.tail == (("a", Fraction(1)),)


def test_prefix_lines_are_sorted_from_time_zero_down():
    spec = parse_spec(
        "group Z 3\n"
        "noise iid 1:1\n"
        "noise at -2 0:1\n"
        "noise at 0 2:1\n"
    )
    assert spec.prefix == (
        (0, (("2", Fraction(1)),)),
        (-2, (("0", Fraction(1)),)),
    )


PARSE_ERRORS = [
    ("gen a = 1 2", "line 1: declare `space N` before generators"),
    ("space 3\ngen a = 1 2", "line 2: generator 'a' needs 3 image values, got 2"),
    ("space 2\ngen a = 1 2\nnoise iid a:2/3", "line 3: weights sum to 2/3, expected 1"),
    (
        "space 2\ngen a = 1 2\ngen a = 2 1\nnoise iid a:1",
        "line 3: duplicate generator 'a'",
    ),
    ("space 2\nfrob 1", "line 2: unknown directive 'frob'"),
    ("space 2\ngen a = 1 3", "line 2: image value 3 outside 1..2"),
    ("space 2\ngen a = 1 2\nnoise iid b:1", "line 3: unknown generator 'b' in noise law"),
    ("space 2\ngen a = 1 2", "missing stationary noise: declare `noise iid ...`"),
    ("group Z 4\nnoise iid 5:1", "line 2: unknown residue '5' in noise law"),
    (
        "space 2\ngen a = 1 2\nnoise iid a:1/2 a:1/2",
        "line 3: duplicate atom 'a' in one noise law",
    ),
    (
        "group Z 2\nnoise iid 0:1/2 1:1/2\nnoise at 1 0:1",
        "line 3: noise times must satisfy K <= 0",
    ),
    ("", "missing carrier: declare `space N` or `group Z N`"),
    ("space 2\nspace 2", "line 2: carrier already declared"),
    ("group Z 2\ngen a = 1 2", "line 2: generators are not allowed in group mode"),
    (
        "space 2\ngen a = 1 2\nnoise iid a:1\nnoise iid a:1",
        "line 4: stationary noise already declared",
    ),
    (
        "group Z 2\nnoise iid 0:1/2 1:1/2\nnoise at -1 1:1\nnoise at -1 0:1",
        "line 4: noise at -1 already declared",
    ),
    ("space 2\ngen a = 1 2\nnoise iid a:x", "line 3: bad weight 'x' for atom 'a'"),
    ("space 2\ngen a = 1 2\nnoise iid a", "line 3: expected NAME:WEIGHT, got 'a'"),
    ("space 0", "line 1: state count must be positive"),
    (
        "space 2\ngen a = 1 2\ngen b = 2 1\nnoise iid a:3/2 b:-1/2",
        "line 4: negative weight for atom 'b'",
    ),
    ("group Z 2\nnoise iid", "line 2: noise line has no atoms"),
    ("space 2\ngen a = 1 2\nnoise laplace a:1", "line 3: usage: noise iid ... | noise at K ..."),
    ("group Z x", "line 1: bad modulus 'x'"),
    ("space 2\nnoise iid a:1", "semigroup mode needs at least one `gen` line"),
]


@pytest.mark.parametrize("text,message", PARSE_ERRORS)
def test_parse_error_messages(text, message):
    with pytest.raises(SpecError) as exc:
        parse_spec(text)
    assert str(exc.value) == message


def test_spec_error_carries_the_line_number():
    with pytest.raises(SpecError) as exc:
        parse_spec("space 2\ngen a = 1 3")
    assert exc.value.line == 2


# --------------------------------------------------------------- compiling


def test_compiled_three_state_problem_matches_the_handbuilt_noise():
    compiled = compile_problem(parse_spec(THREE_STATE_TEXT))
    assert compiled.noise == two_map_noise(HALF, HALF)
    assert compiled.element_label(GEN_A) == "s1"
    assert compiled.element_label(TransformationElement((0, 0, 0))) == "(1 1 1)"
    assert compiled.state_label(0) == "1"


def test_compiled_prefix_gaps_fall_back_to_the_tail():
    compiled = compile_problem(
        parse_spec("group Z 2\nnoise iid 0:1/2 1:1/2\nnoise at -2 1:1\n")
    )
    noise = compiled.noise
    assert len(noise.prefix) == 3
    assert noise.prefix[0] == noise.tail
    assert noise.prefix[1] == noise.tail
    assert noise.prefix[2] == ProbMeasure.point(
        element_carrier(compiled.context.space), compiled.context.group_elements[1]
    )
    assert compiled.element_label(compiled.context.group_elements[1]) == "+1"
    assert compiled.state_label(1) == "1"


def test_compiled_duplicate_atoms_merge_by_element():
    # two generator names with one image land on the same element
    compiled = compile_problem(
        parse_spec("space 2\ngen a = 2 1\ngen b = 2 1\nnoise iid a:1/2 b:1/2\n")
    )
    swap = TransformationElement((1, 0))
    assert compiled.noise.tail.atoms == ((swap, Fraction(1)),)


# --------------------------------------------------------------- analyze


THREE_STATE_REPORT = """\
carrier: semigroup on 3 states
noise tail: s1:1/2 s2:1/2
closure: 7 elements: s1 s2 (1 1 3) (1 2 1) (2 2 2) (3 3 3) (1 1 1)
  synchronizing: (1 1 1) (2 2 2) (3 3 3)
  injective: none
  left-cancellative: no
  core after 1 power step: (1 1 1) (1 1 3) (1 2 1) (2 2 2) (3 3 3) s1 s2
  core orbit: {1, 2, 3}
products converge a.s.: yes; in law: yes
  recurrent class {(2 2 2)} period 1 absorption 1/3
  recurrent class {(3 3 3)} period 1 absorption 1/3
  recurrent class {(1 1 1)} period 1 absorption 1/3
limit law: (1 1 1):1/3 (2 2 2):1/3 (3 3 3):1/3
cesaro law: (1 1 1):1/3 (2 2 2):1/3 (3 3 3):1/3
stationary state law: 1:1/3 2:1/3 3:1/3
invariance subgroup: order 3: (1 2 3) (2 3 1) (3 1 2)
solution families (1, certified):
  extremal(entry 1), tail period 1, law at 0: 1:1/3 2:1/3 3:1/3
classification:
  converges a.s. (P1'): yes
  converges mod subgroup (P2'): yes, order 3
  unique in law: yes
  pathwise unique: yes
  all extremal solutions strong: yes
notes:
  - extremal solutions realized as entry-point families of the limit law (Lemma 4.1)
  - products converge almost surely: every extremal solution is strong (Thm 4.2)
  - limit support is synchronizing: pathwise uniqueness holds (Thm 4.6; cf. Thm 5.1(ii),(iv))
  - convergence modulo a subgroup of order 3 also holds
"""


def test_analyze_text_report_is_frozen(capsys, specs_dir):
    rc, out, err = run(capsys, ["analyze", str(specs_dir / "three_state.tsl")])
    assert rc == 0
    assert err == ""
    assert out == THREE_STATE_REPORT


def test_analyze_text_report_on_the_shift_fixture(capsys, specs_dir):
    rc, out, _ = run(capsys, ["analyze", str(specs_dir / "z3_shift.tsl")])
    assert rc == 0
    lines = out.splitlines()
    assert "carrier: cyclic on 3 states" in lines
    assert "noise at 0: +0:1/3 +1:2/3" in lines
    assert "  recurrent class {+0, +1, +2} period 3 absorption 1" in lines
    assert "limit law:" not in out
    assert "cesaro law: +0:1/3 +1:1/3 +2:1/3" in lines
    assert "invariance subgroup: none found" in lines
    assert "  extremal(entry 0), tail period 3, law at 0: 0:2/3 2:1/3" in lines
    assert "  trichotomy: C2" in lines
    assert "fourier: p_mu=1 z_mu={0, 1, 2} h_mu={0} case C2" in lines


def test_analyze_text_report_on_the_half_period_fixture(capsys, specs_dir):
    rc, out, _ = run(capsys, ["analyze", str(specs_dir / "z4_pair.tsl")])
    assert rc == 0
    lines = out.splitlines()
    assert (
        "stationary state law: state chain has 2 recurrent classes: {0, 2}, {1, 3}"
        in lines
    )
    assert "invariance subgroup: order 2: +0 +2" in lines
    assert "  extremal(entry 0), tail period 1, law at 0: 0:1/2 2:1/2" in lines
    assert "  extremal(entry 1), tail period 1, law at 0: 1:1/2 3:1/2" in lines
    assert "  unique in law: no" in lines
    assert "fourier: p_mu=2 z_mu={0, 2} h_mu={0, 2} case C3" in lines


def test_analyze_json_is_canonical_and_byte_stable(capsys, specs_dir):
    argv = ["analyze", str(specs_dir / "three_state.tsl"), "--json"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert len(out1.encode()) == 4466
    payload = json.loads(out1)
    assert out1 == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert sorted(payload) == [
        "algebra",
        "classification",
        "fourier",
        "limits",
        "parameters",
        "problem",
        "solutions",
        "stationary",
    ]
    assert payload["algebra"]["closure_size"] == 7
    assert payload["algebra"]["injective"] == []
    assert payload["problem"]["noise"]["tail"] == {"s1": "1/2", "s2": "1/2"}
    assert payload["stationary"]["law"] == {"1": "1/3", "2": "1/3", "3": "1/3"}
    assert payload["limits"]["subgroup"]["order"] == 3
    assert payload["classification"]["p2_order"] == 3
    assert payload["classification"]["trichotomy"] is None
    assert payload["fourier"] is None
    assert payload["parameters"] == {"window": 8, "subgroup_cap": 64}
    assert payload["solutions"]["certified_extremal"] is True
    families = payload["solutions"]["families"]
    assert len(families) == 1
    assert families[0]["origin"] == "extremal"
    assert families[0]["window"]["0"] == {"1": "1/3", "2": "1/3", "3": "1/3"}
    assert families[0]["window"]["-8"] == families[0]["window"]["0"]
    assert families[0]["tail_cycle"] == [{"1": "1/3", "2": "1/3", "3": "1/3"}]


def test_analyze_builds_the_noise_closure_once(capsys, specs_dir, monkeypatch):
    calls = count_calls(monkeypatch, tsl.measures, "generate_closure")
    rc, _, _ = run(capsys, ["analyze", str(specs_dir / "three_state.tsl")])
    assert rc == 0
    assert len(calls) == 1


def test_text_analyze_builds_no_limit_window(capsys, specs_dir, monkeypatch):
    # only --json prints the limit's window laws, one per k = 0..-window, and
    # each family's laws below k = 0: text mode makes exactly that many fewer
    # `_measure_json` calls
    calls = count_calls(monkeypatch, tsl.cli, "_measure_json")
    spec = str(specs_dir / "three_state.tsl")
    for window in (8, 64):
        made = []
        for mode in ([], ["--json"]):
            calls.clear()
            rc, out, _ = run(capsys, ["analyze", spec, "--window", str(window), *mode])
            assert rc == 0
            made.append(len(calls))
        text, full = made
        families = json.loads(out)["solutions"]["families"]
        below_zero = sum(len(fam["window"]) - 1 for fam in families)
        assert below_zero > 0
        assert full - text == window + 1 + below_zero


# T4: a transposition, the 4-cycle and a rank-3 map generate all 256 maps
T4_TEXT = (
    "space 4\ngen t = 2 1 3 4\ngen c = 2 3 4 1\ngen m = 1 1 3 4\n"
    "noise iid t:1/3 c:1/3 m:1/3\n"
)


def test_analyze_keeps_a_closure_past_the_subgroup_cap_as_its_right_graph(
    capsys, tmp_path, monkeypatch
):
    path = tmp_path / "t4.tsl"
    path.write_text(T4_TEXT)
    problems = []

    def compile_and_keep(spec):
        problems.append(compile_problem(spec))
        return problems[-1]

    monkeypatch.setattr(tsl.cli, "compile_problem", compile_and_keep)
    for argv in (["analyze", str(path)], ["analyze", "--json", str(path)]):
        rc, _, err = run(capsys, argv)
        assert (rc, err) == (0, "")
    assert len(problems) == 2
    for compiled in problems:
        closure = compiled.noise.closure
        assert closure.size == 256
        assert "_products" not in closure.__dict__


def test_analyze_searches_the_full_monoid_t4_for_its_subgroup(capsys, tmp_path):
    # the ambient monoid has 256 elements, so the search runs only under a
    # raised cap
    path = tmp_path / "t4.tsl"
    path.write_text(T4_TEXT)
    rc, out, err = run(capsys, ["analyze", "--json", "--subgroup-cap", "256", str(path)])
    assert (rc, err) == (0, "")
    limits = json.loads(out)["limits"]
    assert limits["qualifying_subgroup_orders"] == [4, 4, 4, 4]
    assert limits["subgroup"] == {
        "members": ["(1 2 3 4)", "(2 1 4 3)", "(3 4 1 2)", "(4 3 2 1)"],
        "order": 4,
    }
    assert limits["subgroup_error"] is None


def test_analyze_refuses_an_over_cap_group_before_building_it(capsys, tmp_path, monkeypatch):
    path = tmp_path / "z100.tsl"
    path.write_text("group Z 100\nnoise iid 0:1\n")
    calls = count_calls(monkeypatch, tsl.context, "generate_closure")
    rc, out, _ = run(capsys, ["analyze", str(path)])
    assert rc == 0
    assert (
        "invariance subgroup: not searched "
        "(group of order 100 exceeds the cap of 64)\n" in out
    )
    assert calls == []


# cyc4-rank3: a 4-cycle and a rank-3 map on four states, uniform noise
CYC4_RANK3_TEXT = (
    "space 4\n"
    "gen g1 = 2 3 4 1\n"
    "gen g2 = 1 1 3 4\n"
    "noise iid g1:1/2 g2:1/2\n"
)


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path, specs_dir):
    # cyc4-rank3's chain: 128 products, 11 transient blocks, 4 closed classes
    path = tmp_path / "cyc4-rank3.tsl"
    path.write_text(CYC4_RANK3_TEXT)
    for argv in (["analyze", str(path), "--json"], ["simulate", str(specs_dir / "three_state.tsl")]):
        runs = [run_cli(argv, tmp_path, {"PYTHONHASHSEED": seed}) for seed in ("0", "1")]
        for proc in runs:
            assert (proc.returncode, proc.stderr) == (0, b"")
        assert runs[0].stdout == runs[1].stdout


@pytest.mark.xfail(
    strict=True,
    reason="recurrent-class members are labelled as closure ids, but they "
    "index the product chain's states",
)
def test_analyze_recurrent_classes_carry_the_limit_law(capsys, tmp_path):
    path = tmp_path / "cyc4-rank3.tsl"
    path.write_text(CYC4_RANK3_TEXT)
    rc, out, _ = run(capsys, ["analyze", str(path), "--json"])
    assert rc == 0
    limits = json.loads(out)["limits"]
    for cls in limits["recurrent_classes"]:
        if Fraction(cls["absorption"]) > 0:
            for member in cls["members"]:
                assert member in limits["cesaro_law"]


def test_analyze_json_subgroup_cap_degrades_to_a_note(capsys, specs_dir):
    argv = [
        "analyze",
        str(specs_dir / "three_state.tsl"),
        "--json",
        "--subgroup-cap",
        "2",
    ]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    payload = json.loads(out)
    assert payload["limits"]["subgroup"] is None
    assert payload["limits"]["subgroup_error"] == (
        "full transformation monoid on 3 states has 27 elements, "
        "exceeding the cap of 2"
    )
    assert payload["classification"]["p2_order"] is None


# --------------------------------------------------------------- simulate


THREE_STATE_SIM = """\
trials=200 depth=16 seed=42 rng=splitmix64
atom             exact        empirical  stderr
product:s1       0            0          0
product:s2       0            0          0
product:(1 1 3)  1/65536      0          0
product:(1 2 1)  1/65536      0          0
product:(2 2 2)  21845/65536  0.37       0.0341394200302
product:(3 3 3)  21845/65536  0.315      0.0328462326607
product:(1 1 1)  5461/16384   0.315      0.0328462326607
T:mean           3            2.985      0.101606471251
"""

THREE_STATE_CSV = """\
atom,exact,empirical,stderr
product:s1,0,0,0
product:s2,0,0,0
product:(1 1 3),1/65536,0,0
product:(1 2 1),1/65536,0,0
product:(2 2 2),21845/65536,0.37,0.0341394200302
product:(3 3 3),21845/65536,0.315,0.0328462326607
product:(1 1 1),5461/16384,0.315,0.0328462326607
T:mean,3,2.985,0.101606471251
"""


def test_simulate_table_and_csv_are_frozen(capsys, specs_dir, tmp_path):
    target = tmp_path / "rows.csv"
    argv = [
        "simulate",
        str(specs_dir / "three_state.tsl"),
        "--depth",
        "16",
        "--trials",
        "200",
        "--seed",
        "42",
        "--csv",
        str(target),
    ]
    rc, out, err = run(capsys, argv)
    assert rc == 0
    assert err == ""
    assert out == THREE_STATE_SIM + f"csv written to {target}\n"
    first = target.read_bytes()
    assert first.decode().replace("\r\n", "\n") == THREE_STATE_CSV
    rc, _, _ = run(capsys, argv)
    assert rc == 0
    assert target.read_bytes() == first


def test_simulate_builds_one_closure_and_runs_each_trial_once(capsys, specs_dir, monkeypatch):
    closures = count_calls(monkeypatch, tsl.measures, "generate_closure")
    streams = count_calls(monkeypatch, tsl.montecarlo, "trial_stream")
    # three_state absorbs, so its trials retire from their block; z4_pair
    # never does, so its trials draw every factor; 300 trials fill one
    # block and part of the next
    for name, trials in (("three_state", 50), ("z4_pair", 300)):
        closures.clear()
        streams.clear()
        argv = ["simulate", str(specs_dir / f"{name}.tsl"), "--trials", str(trials)]
        rc, _, _ = run(capsys, argv)
        assert rc == 0
        assert len(closures) == 1
        assert len(streams) == trials


# two declared prefix laws, at 0 and -2, with the tail filling the gap at -1
PREFIX_GAP_TEXT = THREE_STATE_TEXT + "noise at 0 s1:1/3 s2:2/3\nnoise at -2 s2:1\n"

PREFIX_GAP_SIM = {
    3: """\
trials=300 depth=12 seed=3 rng=splitmix64
atom             exact     empirical       stderr
product:s1       0         0               0
product:s2       0         0               0
product:(1 1 3)  1/1536    0               0
product:(1 2 1)  0         0               0
product:(2 2 2)  1/6       0.163333333333  0.0213428798085
product:(3 3 3)  853/1536  0.56            0.0286589136803
product:(1 1 1)  71/256    0.276666666667  0.0258277771803
T:mean           19/6      3.07            0.0837675354777
""",
    11: """\
trials=300 depth=12 seed=11 rng=splitmix64
atom             exact     empirical       stderr
product:s1       0         0               0
product:s2       0         0               0
product:(1 1 3)  1/1536    0               0
product:(1 2 1)  0         0               0
product:(2 2 2)  1/6       0.166666666667  0.0215165741456
product:(3 3 3)  853/1536  0.536666666667  0.0287897872839
product:(1 1 1)  71/256    0.296666666667  0.0263726850836
T:mean           19/6      3.08333333333   0.0849128093116
""",
}

PREFIX_GAP_CSV = {
    3: """\
atom,exact,empirical,stderr
product:s1,0,0,0
product:s2,0,0,0
product:(1 1 3),1/1536,0,0
product:(1 2 1),0,0,0
product:(2 2 2),1/6,0.163333333333,0.0213428798085
product:(3 3 3),853/1536,0.56,0.0286589136803
product:(1 1 1),71/256,0.276666666667,0.0258277771803
T:mean,19/6,3.07,0.0837675354777
""",
    11: """\
atom,exact,empirical,stderr
product:s1,0,0,0
product:s2,0,0,0
product:(1 1 3),1/1536,0,0
product:(1 2 1),0,0,0
product:(2 2 2),1/6,0.166666666667,0.0215165741456
product:(3 3 3),853/1536,0.536666666667,0.0287897872839
product:(1 1 1),71/256,0.296666666667,0.0263726850836
T:mean,19/6,3.08333333333,0.0849128093116
""",
}


@pytest.mark.parametrize("seed", [3, 11])
def test_simulate_with_a_gapped_prefix_is_frozen(capsys, tmp_path, seed):
    path = tmp_path / "gap.tsl"
    path.write_text(PREFIX_GAP_TEXT)
    target = tmp_path / "rows.csv"
    argv = ["simulate", str(path), "--depth", "12", "--trials", "300", "--seed", str(seed)]
    rc, out, err = run(capsys, [*argv, "--csv", str(target)])
    assert rc == 0
    assert err == ""
    assert out == PREFIX_GAP_SIM[seed] + f"csv written to {target}\n"
    # csv.writer ends rows with CRLF
    assert target.read_bytes() == PREFIX_GAP_CSV[seed].replace("\n", "\r\n").encode()


GROUP_WALK_SIM = """\
trials=100 depth=8 seed=7 rng=splitmix64
atom          exact  empirical  stderr
product:+0    1/2    0.46       0.0498397431775
product:+1    1/2    0.54       0.0498397431775
T:p_infinity  1      1          0
"""


def test_simulate_reports_escape_mass_when_nothing_absorbs(capsys, specs_dir):
    argv = [
        "simulate",
        str(specs_dir / "z2_uniform.tsl"),
        "--depth",
        "8",
        "--trials",
        "100",
        "--seed",
        "7",
    ]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert out == GROUP_WALK_SIM


# a cycle and a constant map, the constant drawn with probability 10^-60:
# E[T] = 10^60, and the exact product laws at depth 100 have numerators and
# denominators of about 6,000 digits, past the interpreter's default cap of
# 4,300 digits on int-to-string conversion
RARE_CONSTANT_TEXT = (
    "space 3\n"
    "gen a = 2 3 1\n"
    "gen b = 1 1 1\n"
    f"noise iid a:{10**60 - 1}/{10**60} b:1/{10**60}\n"
)


def test_simulate_renders_exact_values_past_the_digit_cap(capsys, tmp_path):
    problem = tmp_path / "rare.tsl"
    problem.write_text(RARE_CONSTANT_TEXT)
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    rc, out, err = run(capsys, ["simulate", str(problem), "--depth", "100", "--trials", "10"])
    assert (rc, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
    rows = dict(
        re.match(r"(product:(?:\(.*?\)|\S+)|T:\S+)\s+(\S+)", line).groups()
        for line in out.splitlines()[2:]
    )
    assert rows.pop("T:mean") == str(10**60)
    compiled = compile_problem(parse_spec(RARE_CONSTANT_TEXT))
    with tsl.cli._uncapped_digits():
        exact = {
            f"product:{compiled.element_label(e)}": str(w)
            for e, w in exact_product_law(compiled.noise, 100).atoms
        }
    assert max(len(v) for v in exact.values()) > 4300
    # the table lists every closure element, the unreachable ones at 0
    assert exact.keys() <= rows.keys()
    assert rows == {k: exact.get(k, "0") for k in rows}


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-string digit cap"
)
def test_an_over_long_weight_is_still_refused(capsys, tmp_path):
    weight = "1" * 4301
    problem = tmp_path / "long.tsl"
    problem.write_text(f"space 2\ngen a = 1 2\nnoise iid a:{weight}/{weight}\n")
    rc, out, err = run(capsys, ["simulate", str(problem), "--trials", "5"])
    assert (rc, out) == (1, "")
    assert err == f"error: line 3: bad weight '{weight}/{weight}' for atom 'a'\n"


# ----------------------------------------------------------------- fourier


def test_fourier_text_output(capsys, specs_dir):
    rc, out, _ = run(capsys, ["fourier", str(specs_dir / "z4_pair.tsl")])
    assert rc == 0
    assert out == (
        "modulus: 4\n"
        "pi: 1 0 1 0\n"
        "z_mu: {0, 2}\n"
        "p_mu: 2\n"
        "h_mu: {0, 2}\n"
        "trichotomy: C3\n"
    )


def test_fourier_json_output(capsys, specs_dir):
    rc, out, _ = run(capsys, ["fourier", str(specs_dir / "z4_pair.tsl"), "--json"])
    assert rc == 0
    assert json.loads(out) == {
        "modulus": 4,
        "pi": [1, 0, 1, 0],
        "z_mu": [0, 2],
        "p_mu": 2,
        "h_mu": [0, 2],
        "trichotomy": "C3",
    }


def test_fourier_needs_a_cyclic_carrier(capsys, specs_dir):
    rc, out, err = run(capsys, ["fourier", str(specs_dir / "three_state.tsl")])
    assert rc == 1
    assert out == ""
    assert err == "error: operation needs a cyclic group carrier\n"


# -------------------------------------------------------------- exit codes


def test_exit_code_for_missing_files_and_bad_usage(capsys, tmp_path):
    rc, _, err = run(capsys, ["analyze", str(tmp_path / "absent.tsl")])
    assert rc == 1
    assert err.startswith("error:")

    rc, _, err = run(capsys, ["simulate", "whatever.tsl", "--trials", "0"])
    assert rc == 1
    assert err == "error: argument --trials: must be at least 1\n"

    rc, _, err = run(capsys, ["simulate", "whatever.tsl", "--seed", "-1"])
    assert rc == 1
    assert err == "error: argument --seed: must be at least 0\n"

    rc, _, err = run(capsys, ["frobnicate"])
    assert rc == 1
    assert err.startswith("error:")


def test_module_entry_point_passes_the_exit_status_through(tmp_path):
    proc = run_cli(["analyze", str(tmp_path / "absent.tsl")], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error:")


def test_exit_code_for_parse_errors(capsys, tmp_path):
    bad = tmp_path / "bad.tsl"
    bad.write_text("space 3\ngen a = 1 2\n")
    rc, _, err = run(capsys, ["analyze", str(bad)])
    assert rc == 1
    assert err == "error: line 2: generator 'a' needs 3 image values, got 2\n"


def test_exit_code_for_oversized_closures(capsys, tmp_path):
    # the full transformation monoid on 6 states has 46656 elements; the
    # guard has to trip before any chain or simulation work touches it
    big = tmp_path / "big.tsl"
    big.write_text(
        "space 6\n"
        "gen c = 2 3 4 5 6 1\n"
        "gen t = 2 1 3 4 5 6\n"
        "gen e1 = 1 1 3 4 5 6\n"
        "noise iid c:1/3 t:1/3 e1:1/3\n"
    )
    rc, _, err = run(capsys, ["analyze", str(big)])
    assert rc == 2
    assert err == "capacity: closure exceeded the cap of 4096 elements\n"
    rc, _, err = run(capsys, ["simulate", str(big), "--trials", "5"])
    assert rc == 2
    assert err == "capacity: closure exceeded the cap of 4096 elements\n"


def test_exit_code_for_unwritable_csv_targets(capsys, specs_dir, tmp_path):
    rc, _, err = run(
        capsys,
        [
            "simulate",
            str(specs_dir / "z2_uniform.tsl"),
            "--trials",
            "5",
            "--depth",
            "2",
            "--csv",
            str(tmp_path / "no-such-dir" / "rows.csv"),
        ],
    )
    assert rc == 1
    assert err.startswith("error:")
