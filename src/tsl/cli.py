"""Command line front end: parse problem files, analyze, simulate.

Problem files are line oriented; '#' starts a comment, blank lines are
skipped.  Directives:

    space N                    states {1..N}, transformation-semigroup mode
    gen NAME = i1 i2 ... iN    a generator by its 1-based image list
    group Z N                  the cyclic group of order N as its own carrier
    noise iid NAME:W ...       the stationary tail law (W rational, e.g. 1/2)
    noise at K NAME:W ...      an explicit law at time K (K <= 0)

Exactly one of `space`/`group` is required, plus one `noise iid` line.
Group mode names atoms by residues 0..N-1 instead of generator names.
Duplicate declarations are errors, as are weights that do not sum to one.

Exit codes: 0 on success, 1 for parse/validation/usage errors, 2 when a
capacity guard stopped the analysis entirely (per-feature guards inside the
analysis degrade to notes instead).  JSON output is canonical: keys sorted,
rationals rendered as strings, so identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from .algebra import (
    FiniteSemigroup,
    StateSpace,
    TransformationElement,
    classify_elements,
    core_orbit,
    is_left_cancellative,
    power_core,
)
from .context import ActionContext, cyclic_group_context, semigroup_context
from .errors import (
    CapacityError,
    MultiplicityError,
    SpecError,
    UnsupportedCaseError,
)
from .measures import NoiseSpec, ProbMeasure, element_carrier
from .montecarlo import (
    SimConfig,
    exact_product_law,
    stopping_time_stats,
)
from .solver import (
    ClassificationReport,
    FourierReport,
    classify,
    fourier_trichotomy,
    stationary_law,
)

__all__ = [
    "ProblemSpec",
    "CompiledProblem",
    "parse_spec",
    "serialize_spec",
    "compile_problem",
    "main",
]


@dataclass(frozen=True)
class ProblemSpec:
    """A parsed problem file, order-normalized but otherwise verbatim."""

    mode: str
    size: int
    generators: tuple[tuple[str, tuple[int, ...]], ...]
    tail: tuple[tuple[str, Fraction], ...]
    prefix: tuple[tuple[int, tuple[tuple[str, Fraction], ...]], ...]


def _parse_weights(tokens: Sequence[str], lineno: int) -> tuple[tuple[str, Fraction], ...]:
    if not tokens:
        raise SpecError("noise line has no atoms", lineno)
    seen = {}
    order = []
    for tok in tokens:
        name, sep, weight = tok.rpartition(":")
        if not sep or not name:
            raise SpecError(f"expected NAME:WEIGHT, got {tok!r}", lineno)
        if name in seen:
            raise SpecError(f"duplicate atom {name!r} in one noise law", lineno)
        try:
            w = Fraction(weight)
        except (ValueError, ZeroDivisionError):
            raise SpecError(f"bad weight {weight!r} for atom {name!r}", lineno)
        if w < 0:
            raise SpecError(f"negative weight for atom {name!r}", lineno)
        seen[name] = w
        order.append(name)
    total = sum(seen.values())
    if total != 1:
        raise SpecError(f"weights sum to {total}, expected 1", lineno)
    return tuple((n, seen[n]) for n in order if seen[n] != 0)


def parse_spec(text: str) -> ProblemSpec:
    """Parse a problem file; errors carry 1-based line numbers."""
    space_size: Optional[int] = None
    group_size: Optional[int] = None
    gens: list[tuple[str, tuple[int, ...]]] = []
    gen_names: set[str] = set()
    tail: Optional[tuple[tuple[str, Fraction], ...]] = None
    prefix: dict[int, tuple[tuple[str, Fraction], ...]] = {}
    noise_lines: list[tuple[int, tuple[tuple[str, Fraction], ...]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "space":
            if len(tokens) != 2:
                raise SpecError("usage: space N", lineno)
            if space_size is not None or group_size is not None:
                raise SpecError("carrier already declared", lineno)
            try:
                space_size = int(tokens[1])
            except ValueError:
                raise SpecError(f"bad state count {tokens[1]!r}", lineno)
            if space_size < 1:
                raise SpecError("state count must be positive", lineno)
        elif head == "group":
            if len(tokens) != 3 or tokens[1] != "Z":
                raise SpecError("usage: group Z N", lineno)
            if space_size is not None or group_size is not None:
                raise SpecError("carrier already declared", lineno)
            try:
                group_size = int(tokens[2])
            except ValueError:
                raise SpecError(f"bad modulus {tokens[2]!r}", lineno)
            if group_size < 1:
                raise SpecError("modulus must be positive", lineno)
        elif head == "gen":
            if group_size is not None:
                raise SpecError("generators are not allowed in group mode", lineno)
            if space_size is None:
                raise SpecError("declare `space N` before generators", lineno)
            if len(tokens) < 4 or tokens[2] != "=":
                raise SpecError("usage: gen NAME = i1 ... iN", lineno)
            name = tokens[1]
            if name in gen_names:
                raise SpecError(f"duplicate generator {name!r}", lineno)
            values = tokens[3:]
            if len(values) != space_size:
                raise SpecError(
                    f"generator {name!r} needs {space_size} image values, "
                    f"got {len(values)}",
                    lineno,
                )
            image = []
            for v in values:
                try:
                    i = int(v)
                except ValueError:
                    raise SpecError(f"bad image value {v!r}", lineno)
                if not 1 <= i <= space_size:
                    raise SpecError(
                        f"image value {i} outside 1..{space_size}", lineno
                    )
                image.append(i - 1)
            gen_names.add(name)
            gens.append((name, tuple(image)))
        elif head == "noise":
            if len(tokens) >= 2 and tokens[1] == "iid":
                if tail is not None:
                    raise SpecError("stationary noise already declared", lineno)
                tail = _parse_weights(tokens[2:], lineno)
                noise_lines.append((lineno, tail))
            elif len(tokens) >= 3 and tokens[1] == "at":
                try:
                    k = int(tokens[2])
                except ValueError:
                    raise SpecError(f"bad time index {tokens[2]!r}", lineno)
                if k > 0:
                    raise SpecError("noise times must satisfy K <= 0", lineno)
                if k in prefix:
                    raise SpecError(f"noise at {k} already declared", lineno)
                prefix[k] = _parse_weights(tokens[3:], lineno)
                noise_lines.append((lineno, prefix[k]))
            else:
                raise SpecError("usage: noise iid ... | noise at K ...", lineno)
        else:
            raise SpecError(f"unknown directive {head!r}", lineno)

    if space_size is None and group_size is None:
        raise SpecError("missing carrier: declare `space N` or `group Z N`")
    if tail is None:
        raise SpecError("missing stationary noise: declare `noise iid ...`")
    if space_size is not None and not gens:
        raise SpecError("semigroup mode needs at least one `gen` line")

    mode = "semigroup" if space_size is not None else "cyclic"
    size = space_size if space_size is not None else group_size
    assert size is not None
    valid_names = gen_names if mode == "semigroup" else {str(r) for r in range(size)}
    for lineno, weights in noise_lines:
        for name, _ in weights:
            if name not in valid_names:
                what = "generator" if mode == "semigroup" else "residue"
                raise SpecError(f"unknown {what} {name!r} in noise law", lineno)

    return ProblemSpec(
        mode=mode,
        size=size,
        generators=tuple(gens),
        tail=tail,
        prefix=tuple(sorted(prefix.items(), reverse=True)),
    )


def serialize_spec(spec: ProblemSpec) -> str:
    """Canonical text for a spec; parse(serialize(s)) == s."""
    lines = []
    if spec.mode == "semigroup":
        lines.append(f"space {spec.size}")
        for name, image in spec.generators:
            imgs = " ".join(str(v + 1) for v in image)
            lines.append(f"gen {name} = {imgs}")
    else:
        lines.append(f"group Z {spec.size}")
    lines.append("noise iid " + " ".join(f"{n}:{w}" for n, w in spec.tail))
    for k, weights in spec.prefix:
        lines.append(
            f"noise at {k} " + " ".join(f"{n}:{w}" for n, w in weights)
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CompiledProblem:
    spec: ProblemSpec
    context: ActionContext
    noise: NoiseSpec

    def element_label(self, e: TransformationElement) -> str:
        if self.spec.mode == "cyclic":
            return f"+{self.context.element_state(e)}"
        for name, image in self.spec.generators:
            if image == e.image:
                return name
        return e.describe(self.context.space)

    def state_label(self, x: int) -> str:
        return self.context.space.label(x)


def compile_problem(spec: ProblemSpec) -> CompiledProblem:
    """Resolve names to elements and build the context and noise."""
    if spec.mode == "semigroup":
        context = semigroup_context(StateSpace.of_size(spec.size))
        by_name = {
            name: TransformationElement(image) for name, image in spec.generators
        }
    else:
        context = cyclic_group_context(spec.size)
        assert context.group_elements is not None
        by_name = {str(r): context.group_elements[r] for r in range(spec.size)}
    car = element_carrier(context.space)

    def measure(weights: tuple[tuple[str, Fraction], ...]) -> ProbMeasure:
        acc: dict[TransformationElement, Fraction] = {}
        for name, w in weights:
            e = by_name[name]
            acc[e] = acc.get(e, Fraction(0)) + w
        return ProbMeasure.from_weights(car, acc)

    tail = measure(spec.tail)
    if spec.prefix:
        declared = dict(spec.prefix)
        low = min(declared)
        prefix = tuple(
            measure(declared[k]) if k in declared else tail
            for k in range(0, low - 1, -1)
        )
    else:
        prefix = ()
    return CompiledProblem(spec, context, NoiseSpec(tail, prefix))


def _load(path: str) -> CompiledProblem:
    with open(path, "r", encoding="utf-8") as fh:
        return compile_problem(parse_spec(fh.read()))


def _guard_closure(compiled: CompiledProblem) -> FiniteSemigroup:
    """Refuse early when the noise closure is beyond desk scale.

    The closure is `NoiseSpec.closure`, capped at `measures.CLOSURE_CAP`;
    the chain, the exact laws and the samplers all read that same one.
    """
    return compiled.noise.closure


@contextmanager
def _uncapped_digits():
    """Lift the interpreter's int-to-string digit cap (Python 3.11+) while
    computed rationals are rendered: an exact value may have more than the
    default 4,300 digits.  Parsing keeps the cap, so an over-long weight is
    still refused."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else format(x, ".12g")


def _measure_json(label, m: ProbMeasure) -> dict:
    return {label(k): str(w) for k, w in m.atoms}


def _family_json(compiled: CompiledProblem, entry: int, fam, as_json: bool) -> dict:
    return {
        "origin": fam.origin.kind,
        "entry": compiled.state_label(entry),
        "depth": fam.depth,
        "tail_period": fam.tail_period,
        # the text form prints only the law at 0
        "window": {
            str(k): _measure_json(compiled.state_label, law)
            for k, law in (fam.window if as_json else fam.window[:1])
        },
        "tail_cycle": [_measure_json(compiled.state_label, m) for m in fam.tail_cycle],
    }


def _fourier_json(four: FourierReport) -> dict:
    return {
        "modulus": four.modulus,
        "pi": list(four.pi),
        "z_mu": list(four.z_mu),
        "p_mu": four.p_mu,
        "h_mu": list(four.h_mu),
        "trichotomy": four.trichotomy,
    }


def _analysis_payload(
    compiled: CompiledProblem,
    report: ClassificationReport,
    window: int,
    cap: int,
    as_json: bool,
) -> dict:
    noise = compiled.noise
    closure = noise.closure
    kinds = classify_elements(closure)
    powers, core = power_core(closure)
    labels = [compiled.element_label(e) for e in closure.elements]
    element = dict(zip(closure.elements, labels)).__getitem__
    limit = report.limit
    payload: dict = {
        "problem": {
            "mode": compiled.spec.mode,
            "size": compiled.spec.size,
            "noise": {
                "tail": _measure_json(element, noise.tail),
                "prefix": {
                    str(-i): _measure_json(element, m)
                    for i, m in enumerate(noise.prefix)
                },
            },
        },
        "algebra": {
            "closure_size": closure.size,
            "elements": labels,
            "synchronizing": sorted(labels[i] for i in kinds.synchronizing_ids),
            "injective": sorted(labels[i] for i in kinds.cancellative_ids),
            "left_cancellative": is_left_cancellative(closure),
            "power_steps": len(powers),
            "core": sorted(labels[i] for i in core),
            "core_orbit": sorted(
                compiled.state_label(x) for x in core_orbit(closure)
            ),
        },
        "limits": {
            "as_convergence": limit.as_convergence,
            "converges_in_law": limit.converges_in_law,
            "limit_law": (
                _measure_json(element, limit.nu) if limit.nu is not None else None
            ),
            "cesaro_law": _measure_json(element, limit.cesaro),
            "window": (
                {
                    str(k): _measure_json(element, m)
                    for k, m in limit.nu_window
                }
                # only the JSON form prints the window laws
                if as_json and limit.nu_window is not None
                else None
            ),
            "recurrent_classes": [
                {
                    "members": [labels[i] for i in cls.member_ids],
                    "period": cls.period,
                    "absorption": str(cls.absorption),
                }
                for cls in limit.chain.recurrent_classes
            ],
            "subgroup": (
                {
                    "order": limit.p2_subgroup.order,
                    "members": [
                        compiled.element_label(e)
                        for e in limit.p2_subgroup.elements
                    ],
                }
                if limit.p2_subgroup is not None
                else None
            ),
            "qualifying_subgroup_orders": [s.order for s in limit.p2_qualifying],
            "subgroup_error": limit.p2_error,
        },
        "solutions": {
            "certified_extremal": report.certified_extremal,
            "families": [
                _family_json(compiled, x, fam, as_json)
                for x, fam in report.extremals
            ],
        },
        "classification": {
            "p1": report.p1,
            "p2_order": report.p2.order if report.p2 is not None else None,
            "unique_in_law": report.unique_in_law,
            "pathwise_unique": report.pathwise_unique,
            "all_extremal_strong": report.all_extremal_strong,
            "trichotomy": report.trichotomy,
            "notes": list(report.notes),
        },
        "parameters": {"window": window, "subgroup_cap": cap},
    }
    try:
        payload["stationary"] = {
            "law": _measure_json(compiled.state_label, stationary_law(noise.tail)),
            "error": None,
        }
    except MultiplicityError as exc:
        payload["stationary"] = {"law": None, "error": str(exc)}
    four = report.fourier
    payload["fourier"] = _fourier_json(four) if four is not None else None
    return payload


def _flag(value: Optional[bool]) -> str:
    if value is None:
        return "undecided"
    return "yes" if value else "no"


def _atoms_text(law: dict) -> str:
    return " ".join(f"{k}:{v}" for k, v in law.items())


def _render_analysis(payload: dict) -> str:
    lines = []
    problem = payload["problem"]
    lines.append(f"carrier: {problem['mode']} on {problem['size']} states")
    noise = problem["noise"]
    lines.append("noise tail: " + _atoms_text(noise["tail"]))
    for k in sorted(noise["prefix"], key=int, reverse=True):
        lines.append(f"noise at {k}: " + _atoms_text(noise["prefix"][k]))
    alg = payload["algebra"]
    lines.append(
        f"closure: {alg['closure_size']} elements: " + " ".join(alg["elements"])
    )
    lines.append(
        "  synchronizing: "
        + (" ".join(alg["synchronizing"]) if alg["synchronizing"] else "none")
    )
    lines.append(
        "  injective: "
        + (" ".join(alg["injective"]) if alg["injective"] else "none")
    )
    lines.append(
        f"  left-cancellative: {'yes' if alg['left_cancellative'] else 'no'}"
    )
    steps = alg["power_steps"]
    lines.append(
        f"  core after {steps} power step{'s' if steps != 1 else ''}: "
        + " ".join(alg["core"])
    )
    lines.append("  core orbit: {" + ", ".join(alg["core_orbit"]) + "}")
    lim = payload["limits"]
    lines.append(
        f"products converge a.s.: {_flag(lim['as_convergence'])}; "
        f"in law: {_flag(lim['converges_in_law'])}"
    )
    for cls in lim["recurrent_classes"]:
        lines.append(
            "  recurrent class {"
            + ", ".join(cls["members"])
            + f"}} period {cls['period']} absorption {cls['absorption']}"
        )
    if lim["limit_law"] is not None:
        lines.append("limit law: " + _atoms_text(lim["limit_law"]))
    lines.append("cesaro law: " + _atoms_text(lim["cesaro_law"]))
    stat = payload["stationary"]
    if stat["law"] is not None:
        lines.append("stationary state law: " + _atoms_text(stat["law"]))
    else:
        lines.append(f"stationary state law: {stat['error']}")
    if lim["subgroup"] is not None:
        lines.append(
            f"invariance subgroup: order {lim['subgroup']['order']}: "
            + " ".join(lim["subgroup"]["members"])
        )
    elif lim["subgroup_error"] is not None:
        lines.append(f"invariance subgroup: not searched ({lim['subgroup_error']})")
    else:
        lines.append("invariance subgroup: none found")
    sol = payload["solutions"]
    certified = "certified" if sol["certified_extremal"] else "not certified"
    lines.append(f"solution families ({len(sol['families'])}, {certified}):")
    for fam in sol["families"]:
        lines.append(
            f"  {fam['origin']}(entry {fam['entry']}), tail period "
            f"{fam['tail_period']}, law at 0: {_atoms_text(fam['window']['0'])}"
        )
    cls = payload["classification"]
    lines.append("classification:")
    lines.append(f"  converges a.s. (P1'): {_flag(cls['p1'])}")
    p2 = cls["p2_order"]
    lines.append(
        "  converges mod subgroup (P2'): "
        + (f"yes, order {p2}" if p2 is not None else "no")
    )
    lines.append(f"  unique in law: {_flag(cls['unique_in_law'])}")
    lines.append(f"  pathwise unique: {_flag(cls['pathwise_unique'])}")
    lines.append(f"  all extremal solutions strong: {_flag(cls['all_extremal_strong'])}")
    if cls["trichotomy"] is not None:
        lines.append(f"  trichotomy: {cls['trichotomy']}")
    lines.append("notes:")
    for note in cls["notes"]:
        lines.append(f"  - {note}")
    four = payload["fourier"]
    if four is not None:
        lines.append(
            f"fourier: p_mu={four['p_mu']} z_mu={{{', '.join(map(str, four['z_mu']))}}} "
            f"h_mu={{{', '.join(map(str, four['h_mu']))}}} case {four['trichotomy']}"
        )
    return "\n".join(lines) + "\n"


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _cmd_analyze(args) -> int:
    compiled = _load(args.spec)
    _guard_closure(compiled)
    report = classify(
        compiled.noise,
        compiled.context,
        window=args.window,
        subgroup_cap=args.subgroup_cap,
    )
    with _uncapped_digits():
        payload = _analysis_payload(compiled, report, args.window, args.subgroup_cap, args.json)
        text = _json_dump(payload) if args.json else _render_analysis(payload)
    sys.stdout.write(text)
    return 0


def _simulation_rows(compiled: CompiledProblem, cfg: SimConfig) -> list[tuple[str, str, str, str]]:
    noise = compiled.noise
    stats = stopping_time_stats(noise, cfg)
    exact = dict(exact_product_law(noise, cfg.depth).atoms)
    rows = []
    for key, _count, freq, stderr in stats.products.atoms:
        assert isinstance(key, TransformationElement)
        rows.append(
            (
                f"product:{compiled.element_label(key)}",
                str(exact.get(key, Fraction(0))),
                _fmt(freq),
                _fmt(stderr),
            )
        )
    if stats.exact_mean is not None:
        rows.append(
            (
                "T:mean",
                str(stats.exact_mean),
                _fmt(stats.empirical_mean),
                _fmt(stats.empirical_stderr),
            )
        )
    else:
        frequency = stats.unabsorbed / stats.trials
        rows.append(
            (
                "T:p_infinity",
                str(stats.infinite_mass),
                _fmt(frequency),
                _fmt((frequency * (1 - frequency) / stats.trials) ** 0.5),
            )
        )
    return rows


def _cmd_simulate(args) -> int:
    compiled = _load(args.spec)
    _guard_closure(compiled)
    cfg = SimConfig(depth=args.depth, trials=args.trials, seed=args.seed)
    with _uncapped_digits():
        rows = _simulation_rows(compiled, cfg)
    header = ("atom", "exact", "empirical", "stderr")
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    out = [
        f"trials={cfg.trials} depth={cfg.depth} seed={cfg.seed} rng=splitmix64"
    ]
    widths = [
        max(len(row[i]) for row in [header, *rows]) for i in range(4)
    ]
    for row in [header, *rows]:
        out.append(
            "  ".join(v.ljust(widths[i]) for i, v in enumerate(row)).rstrip()
        )
    if args.csv is not None:
        out.append(f"csv written to {args.csv}")
    sys.stdout.write("\n".join(out) + "\n")
    return 0


def _cmd_fourier(args) -> int:
    compiled = _load(args.spec)
    four = fourier_trichotomy(compiled.noise, compiled.context)
    if args.json:
        sys.stdout.write(_json_dump(_fourier_json(four)))
    else:
        sys.stdout.write(
            f"modulus: {four.modulus}\n"
            f"pi: {' '.join(map(str, four.pi))}\n"
            f"z_mu: {{{', '.join(map(str, four.z_mu))}}}\n"
            f"p_mu: {four.p_mu}\n"
            f"h_mu: {{{', '.join(map(str, four.h_mu))}}}\n"
            f"trichotomy: {four.trichotomy}\n"
        )
    return 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="tsl",
        description="analyze and simulate backward products of random maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="exact limit and classification report")
    analyze.add_argument("spec", help="problem file")
    analyze.add_argument("--window", type=_positive, default=8)
    analyze.add_argument("--subgroup-cap", type=_positive, default=64)
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(func=_cmd_analyze)

    simulate = sub.add_parser("simulate", help="Monte Carlo against exact references")
    simulate.add_argument("spec", help="problem file")
    simulate.add_argument("--depth", type=_positive, default=64)
    simulate.add_argument("--trials", type=_positive, default=10000)
    simulate.add_argument("--seed", type=_nonnegative, default=1)
    simulate.add_argument("--csv", default=None, help="write atom rows to this file")
    simulate.set_defaults(func=_cmd_simulate)

    fourier = sub.add_parser("fourier", help="cyclic-carrier character analysis")
    fourier.add_argument("spec", help="problem file")
    fourier.add_argument("--json", action="store_true")
    fourier.set_defaults(func=_cmd_fourier)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (SpecError, UnsupportedCaseError, MultiplicityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
