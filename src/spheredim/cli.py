"""Command-line front door: load classes, run analyses, emit artifacts.

Exit codes: 0 success, 1 usage or input-format error, 2 verification failure,
3 budget or cap exceeded.  All diagnostics go to stderr; outputs are
deterministic and independent of the worker count (analyses are pure and run
sequentially regardless of --workers).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from pathlib import Path
from typing import Optional

from spheredim.concepts import (
    CapExceededError,
    ClassFormatError,
    ConceptClass,
    PartialHypothesis,
    family_class,
    family_domain_size,
    format_class,
    parse_class,
    popcount,
    power_class,
    product_class,
)
from spheredim.complexes import (
    antipodal_subcomplex,
    barycentric_subdivision,
    complex_to_payload,
    point_label,
    realizable_complex,
)
from spheredim.extremal import (
    DEFAULT_COLLAPSE_BUDGET,
    ExtremalityReport,
    Singleton,
    ThresholdLike,
    Vc1NonThreshold,
    Vc2Plus,
    collapse_certificate,
    cubical_complex,
    cubical_face_counts,
    full_subcomplex_embedding_check,
    is_extremal,
)
from spheredim.spheres import ClassAnalysis, WitnessError, sd_bounds
from spheredim.storage import StorageError, canonical_json, envelope, witness_payload


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _require_count(flag: str, value: int) -> None:
    if value < 0:
        raise UsageError(f"{flag} must be >= 0, got {value}")


def _load_class(path: str, args) -> ConceptClass:
    _require_count("--max-domain", args.max_domain)
    _require_count("--max-hypotheses", args.max_hypotheses)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ClassFormatError(f"cannot decode {path}: {exc}") from exc
    cls = parse_class(text)
    _check_domain(cls.domain_size, args)
    _check_hypotheses(len(cls), args)
    return cls


def _check_domain(size: int, args) -> None:
    if size > args.max_domain:
        raise CapExceededError(f"domain size {size} exceeds --max-domain {args.max_domain}")


def _check_hypotheses(count: int, args) -> None:
    if count > args.max_hypotheses:
        raise CapExceededError(
            f"{count} hypotheses exceed --max-hypotheses {args.max_hypotheses}"
        )


def _emit(text: str, out: Optional[str]) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from exc


def _emit_report(args, payload: dict, lines: list[str]) -> None:
    """A report: the enveloped payload under --json, else its text lines."""
    if args.json:
        _emit(canonical_json(envelope("report", payload)), args.output)
    else:
        _emit("\n".join(lines) + "\n", args.output)


def _class_hash(cls: ConceptClass) -> str:
    return hashlib.sha256(format_class(cls).encode()).hexdigest()[:12]


def _classification_payload(analysis: ClassAnalysis) -> dict:
    got = analysis.classification
    if isinstance(got, Singleton):
        return {"bucket": "singleton"}
    if isinstance(got, ThresholdLike):
        # the flip row reads '-' at the flipped points, '+' elsewhere
        n = analysis.cls.domain_size
        return {
            "bucket": "threshold_like",
            "flip": str(PartialHypothesis.total(n, ((1 << n) - 1) & ~got.flip_mask)),
            "order": list(got.order),
        }
    if isinstance(got, Vc1NonThreshold):
        return {
            "bucket": "vc1_non_threshold",
            "hexagon": [point_label(x, s) for x, s in got.witness.pairs],
        }
    assert isinstance(got, Vc2Plus)
    return {"bucket": "vc2_plus", "shattered_pair": list(got.shattered_pair)}


# (--variant value, payload key, text name, ClassAnalysis field)
DIMENSIONS = (
    ("vc", "vc", "VC", "shattered"),
    ("dual", "vc_dual", "VC*", "dual_shattered"),
    ("antipodal", "vc_antipodal", "VC^a", "antipodally_shattered"),
    ("dual-antipodal", "vc_dual_antipodal", "VC*a", "dual_antipodally_shattered"),
)


def _dims_payload(analysis: ClassAnalysis, variant: str = "all") -> dict:
    return {
        key: popcount(getattr(analysis, field))
        for choice, key, _, field in DIMENSIONS
        if variant in ("all", choice)
    }


def _sd_payload(analysis: ClassAnalysis) -> dict:
    sb = sd_bounds(analysis)
    return {
        "lower": sb.lower,
        "upper": sb.upper,
        "lower_certificates": [
            {"name": c.name, "value": c.value} for c in sb.lower_certificates
        ],
        "upper_certificates": [
            {"name": c.name, "value": c.value} for c in sb.upper_certificates
        ],
    }


def cmd_dims(args) -> int:
    table = _dims_payload(ClassAnalysis(_load_class(args.file, args)), args.variant)
    names = {key: name for _, key, name, _ in DIMENSIONS}
    _emit_report(args, table, [f"{names[k]:6} {v}" for k, v in table.items()])
    return 0


def cmd_complex(args) -> int:
    _require_count("--barycentric", args.barycentric)
    cls = _load_class(args.file, args)
    value = antipodal_subcomplex(cls) if args.antipodal else realizable_complex(cls)
    for _ in range(args.barycentric):
        value = barycentric_subdivision(value)
    _emit(canonical_json(envelope("complex", complex_to_payload(value))), args.output)
    return 0


def cmd_witness(args) -> int:
    witness = ClassAnalysis(_load_class(args.file, args)).witness(args.method)
    if witness is None:
        raise VerificationFailure("no witness construction applies to this class")
    # the constructor verified it; the transcript reads the report it kept
    _emit(canonical_json(envelope("witness", witness_payload(witness))), args.output)
    return 0


def cmd_sd(args) -> int:
    payload = _sd_payload(ClassAnalysis(_load_class(args.file, args)))
    lower_names = ", ".join(c["name"] for c in payload["lower_certificates"])
    upper_names = ", ".join(c["name"] for c in payload["upper_certificates"])
    _emit_report(args, payload, [
        f"sd interval [{payload['lower']}, {payload['upper']}]",
        f"lower certificates: {lower_names}",
        f"upper certificates: {upper_names}",
    ])
    return 0


def _extremality_payload(report: ExtremalityReport) -> dict:
    return {
        "size": report.size,
        "shattered_sets": report.shattered_count,
        "extremal": report.extremal,
    }


def cmd_extremal(args) -> int:
    _require_count("--collapse-budget", args.collapse_budget)
    cls = _load_class(args.file, args)
    report = is_extremal(cls)
    payload = _extremality_payload(report)
    lines = [
        f"hypotheses {report.size}",
        f"shattered sets {report.shattered_count}",
        f"extremal {str(report.extremal).lower()}",
    ]
    if report.extremal:
        cc = cubical_complex(cls)
        payload["cube_counts"] = list(cc.counts())
        payload["barycentric_face_counts"] = list(cubical_face_counts(cc))
        moves = collapse_certificate(cc, node_budget=args.collapse_budget)
        payload["collapse"] = (
            {"collapsible": True, "steps": len(moves)}
            if moves is not None
            else {"collapsible": False}
        )
        embed = full_subcomplex_embedding_check(cls, cc)
        payload["embedding"] = {
            "ok": embed.ok,
            "reversed_case": embed.reversed_case,
            "detail": embed.detail,
        }
        lines += [
            f"cube counts {tuple(payload['cube_counts'])}",
            f"barycentric face counts {tuple(payload['barycentric_face_counts'])}",
            "collapsible " + ("no" if moves is None else f"yes in {len(moves)} steps"),
            f"embedding {embed.detail}",
        ]
    _emit_report(args, payload, lines)
    return 0


def cmd_classify(args) -> int:
    payload = _classification_payload(ClassAnalysis(_load_class(args.file, args)))
    lines = [f"bucket {payload['bucket']}"]
    for key in ("flip", "order", "hexagon", "shattered_pair"):
        if key in payload:
            lines.append(f"{key} {payload[key]}")
    _emit_report(args, payload, lines)
    return 0


def cmd_family(args) -> int:
    if args.n < 1:
        raise UsageError(f"family parameter n must be >= 1, got {args.n}")
    if args.power < 1:
        raise UsageError(f"--power must be >= 1, got {args.power}")
    _require_count("--max-domain", args.max_domain)
    _require_count("--max-hypotheses", args.max_hypotheses)
    # the family caps, then the domain of the power, before anything is built
    _check_domain(family_domain_size(args.name, args.n) * args.power, args)
    cls = power_class(family_class(args.name, args.n), args.power)
    _check_hypotheses(len(cls), args)
    _emit(format_class(cls), args.output)
    return 0


def cmd_product(args) -> int:
    a = _load_class(args.a, args)
    b = _load_class(args.b, args)
    _emit(format_class(product_class(a, b)), args.output)
    return 0


def cmd_report(args) -> int:
    cls = _load_class(args.file, args)
    analysis = ClassAnalysis(cls)
    dims = _dims_payload(analysis)
    sd = _sd_payload(analysis)
    rep = analysis.extremality
    ext = None if rep is None else _extremality_payload(rep)
    classification = _classification_payload(analysis)
    lr_floor = (sd["lower"] + 3 + 1) // 2 if sd["lower"] >= 1 else None
    payload = {
        "class": {"hash": _class_hash(cls), "points": cls.domain_size, "hypotheses": len(cls)},
        "dimensions": dims,
        "sd": sd,
        "extremal": ext,
        "classification": classification,
        "lr_floor": lr_floor,
    }
    lines = [
        f"class {payload['class']['hash']} on {cls.domain_size} points, {len(cls)} hypotheses",
        f"VC {dims['vc']}  VC* {dims['vc_dual']}  VC^a {dims['vc_antipodal']}  VC*a {dims['vc_dual_antipodal']}",
    ]
    if sd["lower"] == sd["upper"]:
        lines.append(f"sd [{sd['lower']}, {sd['upper']}] (exact)")
    else:
        lines.append(f"sd [{sd['lower']}, {sd['upper']}]")
    lines.append(
        "sd certificates: lower "
        + ", ".join(c["name"] for c in sd["lower_certificates"])
        + "; upper "
        + ", ".join(c["name"] for c in sd["upper_certificates"])
    )
    if ext is not None:
        lines.append(f"extremal {str(ext['extremal']).lower()} ({ext['size']} vs {ext['shattered_sets']})")
    lines.append(f"classification {classification['bucket']}")
    if lr_floor is not None:
        lines.append(f"list-replicability floor {lr_floor}")
    _emit_report(args, payload, lines)
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by later ones.

    Parsing leaves no state in it: each ``parse_args`` call fills a fresh
    namespace.
    """
    parser = _Parser(prog="spheredim", description=__doc__)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--max-domain", type=int, default=1 << 20)
    parser.add_argument("--max-hypotheses", type=int, default=1 << 20)
    parser.add_argument("--collapse-budget", type=int, default=DEFAULT_COLLAPSE_BUDGET)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; results never depend on it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="VC-type dimension table")
    p.add_argument("file")
    p.add_argument(
        "--variant",
        choices=tuple(choice for choice, *_ in DIMENSIONS) + ("all",),
        default="all",
    )
    p.add_argument("-o", "--output")

    p = sub.add_parser("complex", help="export the realizable complex")
    p.add_argument("file")
    p.add_argument("--antipodal", action="store_true")
    p.add_argument("--barycentric", type=int, default=0, metavar="K")
    p.add_argument("-o", "--output")

    p = sub.add_parser("witness", help="construct and verify a sphere witness")
    p.add_argument("file")
    p.add_argument(
        "--method", choices=("auto", "crosspolytope", "barycentric"), default="auto"
    )
    p.add_argument("-o", "--output")

    p = sub.add_parser("sd", help="spherical-dimension interval with certificates")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("extremal", help="Pajor counts and cubical analysis")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("classify", help="low-VC classification with certificate")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = sub.add_parser("family", help="emit a named class family")
    p.add_argument("name", choices=("cube", "universal", "universal_plus", "threshold", "subsets_leq"))
    p.add_argument("n", type=int)
    p.add_argument("-m", "--power", type=int, default=1)
    p.add_argument("-o", "--output")

    p = sub.add_parser("product", help="product of two class files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output")

    p = sub.add_parser("report", help="full analysis report")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            raise UsageError(f"--workers must be >= 1, got {args.workers}")
        # looked up at each call, not stored in the shared parser, so a
        # rebound cmd_* (a test's monkeypatch, a tracing wrapper) is the one run
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ClassFormatError, StorageError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (VerificationFailure, WitnessError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
