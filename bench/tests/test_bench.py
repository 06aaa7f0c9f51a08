"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import corpus  # noqa: E402
import tracing  # noqa: E402

from spheredim import cli  # noqa: E402
from spheredim.concepts import family_class, format_class, power_class  # noqa: E402


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_byte_deterministic_per_seed(workload):
    a = corpus.build(workload, 7)
    b = corpus.build(workload, 7)
    assert [(k, v.encode()) for k, v in a.corpus.items()] == [
        (k, v.encode()) for k, v in b.corpus.items()
    ]
    other = corpus.build(workload, 8)
    if workload == "families":
        assert other.corpus == a.corpus
    else:
        assert other.corpus != a.corpus


def test_generated_families_match_the_library():
    specs = corpus.FAMILY_SET + list(corpus.EXTREMAL_FAMILIES) + [
        ("cube", 7, 1), ("universal", 7, 1), ("threshold", 8, 1), ("subsets_leq", 4, 1)]
    for name, n, m in specs:
        want = format_class(power_class(family_class(name, n), m))
        assert corpus._text(corpus.family_rows(name, n, m)) == want


def test_downsets_are_down_closed_with_the_requested_size():
    import random

    rng = random.Random(3)
    for size in corpus.DOWNSET_SIZES:
        rows = corpus.downset_rows(rng, 5, size)
        sets = {sum(1 << j for j, c in enumerate(r) if c == "+") for r in rows}
        assert len(sets) == size
        assert all(s & ~(1 << j) in sets for s in sets for j in range(5))


@pytest.mark.parametrize("workload", corpus.STEADY_WORKLOADS)
def test_op_list_is_stable(workload):
    """The op list of every recorded seed matches the goldens' record."""
    goldens = json.loads((BENCH / "goldens" / f"{workload}.json").read_text())
    assert sorted(goldens["seeds"]) == sorted(
        str(s) for s in (corpus.DEFAULT_SEED, corpus.HELD_OUT_SEED))
    for seed, keys in goldens["seeds"].items():
        wl = corpus.build(workload, int(seed))
        assert [op.golden_key(wl.corpus) for op in wl.ops] == keys
        assert all(key in goldens["ops"] for key in keys)
    ids = [op.op_id for op in corpus.build(workload, 5).ops]
    assert len(ids) == len(set(ids))


def _snapshot() -> dict:
    """Identity of every attribute of every spheredim module and class."""
    out = {}
    for module in tracing.spheredim_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("spheredim"):
                for cattr, cvalue in vars(value).items():
                    out[(module.__name__, attr, cattr)] = id(cvalue)
    return out


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_wrapping_and_unwrapping_leaves_spheredim_identical(tmp_path):
    import spheredim.concepts as concepts
    import spheredim.spheres as spheres

    for short in tracing.MODULES:  # install imports them; load them first
        importlib.import_module(f"spheredim.{short}")
    original = concepts.dual_class
    path = tmp_path / "c.cls"
    path.write_text("".join(r + "\n" for r in corpus.FIGURE))
    plain = _cli(["sd", str(path)])
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # the name spheres imported from concepts is wrapped as well
        assert spheres.dual_class is not original
        assert spheres.dual_class.__wrapped__ is original
        traced = _cli(["sd", str(path)])
    finally:
        tracer.uninstall()
    assert traced == plain
    assert _snapshot() == before
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "spheres.sd_bounds", "concepts.dual_class",
            "complexes.SimplicialComplex.__post_init__"} <= names


def test_self_time_arithmetic_on_a_synthetic_tree():
    # root [0,10] has children a [1,4] and b [5,9]; b has child c [6,7];
    # c calls the same function as b, which counts once in b's time
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["concepts.dual_class", 1.0, 4.0, 0, 0],
        ["spheres.verify_witness", 5.0, 9.0, 0, 0],
        ["spheres.verify_witness", 6.0, 7.0, 2, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    m = tracing.layer_metrics(spans, tracing.Counter())
    assert m["cli.self_s"] == 3.0
    assert m["concepts.self_s"] == 3.0
    assert m["spheres.self_s"] == 4.0
    assert m["spheres.verify_witness.s"] == 4.0
    assert m["spheres.verify_witness.calls"] == 2.0
    assert m["concepts.dual_class.s"] == 3.0
    assert sum(m[f"{layer}.self_s"] for layer in tracing.MODULES) == 10.0
