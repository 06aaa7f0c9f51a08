"""Seeded corpus and op lists for the spheredim benchmark.

Class files are generated here in plain Python, without calling spheredim,
so the library under test only ever sees generated text.  The same workload
and seed always give the same class bytes and the same op list.

An op is either one ``spheredim.cli.main(argv)`` call or one library round
trip (``command == "roundtrip"``).  Ops of one class run in list order, so a
round trip can read the witness that the class's ``witness`` op emitted
earlier in the same pass.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

WORKLOADS = ("random-classes", "families", "extremal-classes", "scale")
STEADY_WORKLOADS = WORKLOADS[:3]
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# The figure class of the paper.  Every workload runs it through every
# command, so every metric of the benchmark is defined on every workload;
# it costs well under 1% of a pass.
FIGURE = ("---", "-+-", "++-", "+--", "--+")

CLI_COMMANDS = ("report", "dims", "sd", "witness", "complex", "extremal", "classify")
COMMANDS = CLI_COMMANDS + ("roundtrip",)  # a round trip reads the witness op's output


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``args`` are the CLI arguments before the class file path (for a CLI op)
    or the round-trip kind and its parameters.  ``classes`` names the corpus
    classes the op reads.
    """

    command: str
    args: tuple[str, ...]
    classes: tuple[str, ...]
    expect_exit: int = 0

    @property
    def op_id(self) -> str:
        return " ".join(self.args) + " " + ",".join(self.classes)

    def golden_key(self, corpus: dict[str, str]) -> str:
        """Op id plus a digest of its input bytes, so goldens follow content."""
        h = hashlib.sha256()
        for name in self.classes:
            h.update(corpus[name].encode())
            h.update(b"\0")
        return f"{self.op_id}#{h.hexdigest()[:16]}"


@dataclass(frozen=True)
class Workload:
    corpus: dict[str, str]  # class name -> class file text
    ops: tuple[Op, ...]


# --- class generators -----------------------------------------------------


def _row(plus: int, n: int) -> str:
    return "".join("+" if plus >> j & 1 else "-" for j in range(n))


def cube_rows(n: int) -> list[str]:
    """All 2^n sign vectors, leftmost position most significant."""
    return [f"{i:0{n}b}".replace("0", "-").replace("1", "+") for i in range(1 << n)]


def universal_rows(n: int) -> list[str]:
    """n indicator hypotheses on the 2^n subsets of [n]."""
    return [
        "".join("+" if s >> i & 1 else "-" for s in range(1 << n)) for i in range(n)
    ]


def universal_plus_rows(n: int) -> list[str]:
    return universal_rows(n) + ["-" * (1 << n), "+" * (1 << n)]


def threshold_rows(d: int) -> list[str]:
    return ["+" * i + "-" * (d - i) for i in range(d + 1)]


def subsets_leq_rows(d: int) -> list[str]:
    return [r for r in cube_rows(d + 1) if "-" in r]


def power_rows(rows: list[str], m: int) -> list[str]:
    out = rows
    for _ in range(m - 1):
        out = [a + b for a in out for b in rows]
    return out


FAMILY_ROWS = {
    "cube": cube_rows,
    "universal": universal_rows,
    "universal_plus": universal_plus_rows,
    "threshold": threshold_rows,
    "subsets_leq": subsets_leq_rows,
}


def family_rows(name: str, n: int, m: int = 1) -> list[str]:
    return power_rows(FAMILY_ROWS[name](n), m)


def random_rows(rng: random.Random, n: int, m: int) -> list[str]:
    """m distinct uniform random total hypotheses on n points."""
    return [_row(v, n) for v in rng.sample(range(1 << n), m)]


def downset_rows(rng: random.Random, n: int, size: int) -> list[str]:
    """Indicators of a random down-closed family of subsets of [n] with
    exactly ``size`` members; down-sets are extremal classes."""
    members = {0}
    while len(members) < size:
        addable = sorted(
            s
            for s in range(1 << n)
            if s not in members
            and all((s & ~(1 << j)) in members for j in range(n) if s >> j & 1)
        )
        members.add(rng.choice(addable))
    return [_row(s, n) for s in sorted(members)]


def _text(rows: list[str]) -> str:
    return "".join(r + "\n" for r in rows)


# --- workloads ------------------------------------------------------------


def _cli_ops(name: str, commands, json_form: bool) -> list[Op]:
    """CLI ops for one class; ``json_form`` adds --json to the text commands."""
    ops = []
    for command in commands:
        args: tuple[str, ...] = (command,)
        if command == "complex":
            args = ("complex", "--antipodal")
        elif command == "complex-bary":
            command, args = "complex", ("complex", "--antipodal", "--barycentric", "1")
        elif json_form and command != "witness":
            args = ("--json",) + args
        ops.append(Op(command, args, (name,)))
    return ops


def _roundtrip(name: str) -> Op:
    return Op("roundtrip", ("roundtrip", "witness"), (name,))


def _figure_ops() -> list[Op]:
    return (
        _cli_ops("figure", CLI_COMMANDS + ("complex-bary",), False)
        + _cli_ops("figure", ("dims", "sd", "classify", "report", "extremal"), True)
        + [_roundtrip("figure")]
    )


# (points, hypotheses, classes per pass).  Tall shapes (|H| >> n) load the
# dual-domain searches, wide ones (n >~ |H|) the primal-domain searches.
RANDOM_SHAPES = ((7, 24, 3), (8, 28, 2), (9, 24, 2), (10, 16, 3), (12, 14, 3))


def random_classes(seed: int) -> Workload:
    rng = random.Random(f"random-classes:{seed}")
    corpus = {"figure": _text(list(FIGURE))}
    ops: list[Op] = []
    i = 0
    for n, m, count in RANDOM_SHAPES:
        for k in range(count):
            name = f"r{n}x{m}-{k}"
            corpus[name] = _text(random_rows(rng, n, m))
            ops += _cli_ops(name, CLI_COMMANDS, json_form=i % 2 == 1)
            ops.append(_roundtrip(name))
            i += 1
    ops += _figure_ops()
    return Workload(corpus, tuple(ops))


FAMILY_SET = (
    [("cube", n, 1) for n in range(1, 6)]
    + [("universal", n, 1) for n in range(1, 7)]
    + [("universal_plus", n, 1) for n in range(3, 6)]
    + [("threshold", n, 1) for n in range(3, 7)]
    + [("subsets_leq", n, 1) for n in (2, 3)]
    + [("universal", 2, 2), ("universal", 2, 3), ("universal", 3, 2)]
)
# Inputs on which the barycentric subdivision stays under a second, and
# inputs on which dims, classify, report and extremal do.
BARYCENTRIC_FAMILIES = {
    ("cube", 1, 1), ("cube", 2, 1), ("cube", 3, 1), ("cube", 4, 1),
    ("universal", 1, 1), ("universal", 2, 1), ("universal", 3, 1),
    ("threshold", 3, 1), ("threshold", 4, 1), ("threshold", 5, 1), ("threshold", 6, 1),
    ("subsets_leq", 2, 1), ("subsets_leq", 3, 1), ("universal", 2, 2),
}
SMALL_FAMILIES = {
    ("cube", 1, 1), ("cube", 2, 1), ("cube", 3, 1), ("cube", 4, 1),
    ("universal", 1, 1), ("universal", 2, 1), ("universal", 3, 1), ("universal", 4, 1),
    ("universal_plus", 3, 1), ("universal_plus", 4, 1),
    ("threshold", 3, 1), ("threshold", 4, 1), ("threshold", 5, 1),
    ("subsets_leq", 2, 1), ("subsets_leq", 3, 1),
    ("universal", 2, 2), ("universal", 2, 3), ("universal", 3, 2),
}
JOIN_PAIRS = (("cube-1", "cube-1"), ("cube-2", "threshold-3"), ("universal-2", "universal-2"))
PRODUCT_POWERS = (("universal-2", 2, "universal-2^2"), ("universal-2", 3, "universal-2^3"),
                  ("universal-3", 2, "universal-3^2"))


def _family_name(name: str, n: int, m: int) -> str:
    return f"{name}-{n}" + (f"^{m}" if m > 1 else "")


def families(seed: int) -> Workload:
    """The paper's named families; they do not depend on the seed."""
    corpus = {"figure": _text(list(FIGURE))}
    ops: list[Op] = []
    for spec in FAMILY_SET:
        name = _family_name(*spec)
        rows = family_rows(*spec)
        corpus[name] = _text(rows)
        commands = ["witness", "sd", "complex"]
        if spec in BARYCENTRIC_FAMILIES:
            commands.append("complex-bary")
        if spec in SMALL_FAMILIES:
            commands += ["dims", "classify", "report", "extremal"]
        for op in _cli_ops(name, commands, json_form=False):
            if len(rows) == 1 and op.command == "witness":
                op = replace(op, expect_exit=2)  # VC 0: no witness applies
            ops.append(op)
        if spec == ("universal", 5, 1):
            # 32 points is over the extremality cap: exits 3
            ops.append(Op("extremal", ("extremal",), (name,), expect_exit=3))
        if len(rows) >= 2:
            ops.append(_roundtrip(name))
    for a, b in JOIN_PAIRS:
        ops.append(Op("roundtrip", ("roundtrip", "join"), (a, b)))
    for base, m, power in PRODUCT_POWERS:
        ops.append(Op("roundtrip", ("roundtrip", "product", str(m)), (base, power)))
    ops += _figure_ops()
    return Workload(corpus, tuple(ops))


EXTREMAL_FAMILIES = (("cube", 3, 1), ("cube", 4, 1), ("threshold", 4, 1), ("threshold", 5, 1),
                     ("subsets_leq", 2, 1), ("subsets_leq", 3, 1))
DOWNSET_SIZES = (5, 6, 7, 8, 9, 10, 12, 14)


def extremal_classes(seed: int) -> Workload:
    rng = random.Random(f"extremal-classes:{seed}")
    corpus = {"figure": _text(list(FIGURE))}
    ops: list[Op] = []
    for spec in EXTREMAL_FAMILIES:
        name = _family_name(*spec)
        corpus[name] = _text(family_rows(*spec))
        ops += _cli_ops(name, ("extremal", "classify", "report"), json_form=False)
        ops += _cli_ops(name, ("extremal", "classify", "report"), json_form=True)
    for i, size in enumerate(DOWNSET_SIZES):
        name = f"down5-{size}"
        corpus[name] = _text(downset_rows(rng, 5, size))
        ops += _cli_ops(name, ("extremal", "classify", "report"), json_form=i % 2 == 1)
        ops += _cli_ops(name, ("dims", "sd", "witness", "complex"), json_form=False)
        ops.append(_roundtrip(name))
    ops += _figure_ops()
    return Workload(corpus, tuple(ops))


# The ROADMAP's target sizes and the known slow inputs.  Each op runs once
# per run in its own child process, stopped at the scale time limit.
SCALE_RANDOM = ((12, 200), (16, 400), (10, 80))


def scale(seed: int) -> Workload:
    rng = random.Random(f"scale:{seed}")
    corpus = {}
    for n, m in SCALE_RANDOM:
        corpus[f"r{n}x{m}"] = _text(random_rows(rng, n, m))
    corpus["universal-7"] = _text(universal_rows(7))
    for spec in (("cube", 5, 1), ("cube", 6, 1), ("cube", 7, 1), ("threshold", 6, 1),
                 ("threshold", 8, 1), ("subsets_leq", 4, 1)):
        corpus[_family_name(*spec)] = _text(family_rows(*spec))
    corpus["down6"] = _text(downset_rows(rng, 6, 24))
    j = ("--json",)
    ops = [
        Op("report", j + ("report",), ("r12x200",)),
        Op("complex", ("complex", "--antipodal"), ("r12x200",)),
        Op("dims", j + ("dims",), ("r16x400",)),
        Op("dims", j + ("dims",), ("r10x80",)),
        Op("witness", ("witness",), ("universal-7",)),
        Op("dims", j + ("dims",), ("universal-7",)),
        Op("report", j + ("report",), ("cube-7",)),
        Op("extremal", j + ("extremal",), ("cube-6",)),
        Op("extremal", j + ("extremal",), ("down6",)),
        Op("complex", ("complex", "--antipodal", "--barycentric", "1"), ("threshold-8",)),
        # too slow for the extremal-classes pass
        Op("extremal", j + ("extremal",), ("cube-5",)),
        Op("extremal", j + ("extremal",), ("threshold-6",)),
        Op("extremal", j + ("extremal",), ("subsets_leq-4",)),
    ]
    return Workload(corpus, tuple(ops))


BUILDERS = {
    "random-classes": random_classes,
    "families": families,
    "extremal-classes": extremal_classes,
    "scale": scale,
}


def build(workload: str, seed: int) -> Workload:
    return BUILDERS[workload](seed)
