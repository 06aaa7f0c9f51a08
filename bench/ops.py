"""Running one op, checking its output, and the per-op time limit.

Checks come in two strengths.  With a golden for the op (recorded from the
seed commit, keyed by op id and input bytes) the stdout sha256 and the exit
code must match exactly.  Without one the structural checks run: the exit
code, JSON outputs reloaded through ``spheredim.storage``, and emitted
witnesses re-verified.  Round trips verify every certificate they touch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import signal
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from corpus import Op

from spheredim import cli, disamb, signrank, spheres, storage


# Nominal time of ``reference_kernel``: about its time on a 2.0 GHz Xeon vCPU
# that no other tenant slows.  Op times are reported at this speed.
REFERENCE_S = 0.0003


def reference_kernel() -> float:
    """Wall time of a fixed pure-Python loop that shares no code with
    spheredim.  Timed around every op, it tracks the speed of a shared
    machine whose other tenants slow every process down by up to 1.6x.
    It allocates nothing the garbage collector tracks, so the size of the
    program's heap does not change its time."""
    start = time.perf_counter()
    seen = {}
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) & 0xFFFFF
        seen[acc & 1023] = acc >> 3
    return time.perf_counter() - start


class OpTimeout(BaseException):
    """Raised by the in-process time limit.  It derives from BaseException
    so that no ``except Exception`` in the library can swallow it."""


class CheckFailed(Exception):
    pass


@dataclass
class Result:
    op: Op
    seconds: float
    exit: Optional[int]
    stdout: str
    status: str = "ok"  # ok | mismatch | check | exception | timeout | dependency
    detail: str = ""
    ref: float = REFERENCE_S  # reference kernel time around the op

    @property
    def ref_seconds(self) -> float:
        """The op's time at reference speed: wall time x REFERENCE_S / ref."""
        return self.seconds * REFERENCE_S / self.ref

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(f"{what} failed verification")


def where(exc: BaseException) -> str:
    """The spheredim call path an exception unwound from, outermost first."""
    frames = [
        f"{Path(f.filename).stem}.{f.name}:{f.lineno}"
        for f in traceback.extract_tb(exc.__traceback__)
        if "spheredim" in f.filename
    ]
    return " > ".join(frames[-6:]) or "benchmark code"


def _alarm(signum, frame):
    raise OpTimeout()


def standard_representation(cls) -> signrank.SignRepresentation:
    """The |H|-dimensional sign representation w(h_j) = e_j, phi(x)_j = h_j(x)."""
    m = len(cls.hypotheses)
    points = tuple(
        tuple(1 if h.plus >> x & 1 else -1 for h in cls.hypotheses)
        for x in range(cls.domain_size)
    )
    hyps = tuple(tuple(1 if i == j else 0 for i in range(m)) for j in range(m))
    return signrank.SignRepresentation(m, points, hyps)


class Runner:
    """Runs ops of one workload against class files in ``workdir``."""

    def __init__(self, corpus: dict[str, str], workdir: Path, goldens: dict):
        self.corpus = corpus
        self.workdir = workdir
        self.goldens = goldens
        self.paths = {}
        for i, (name, text) in enumerate(corpus.items()):
            path = workdir / f"c{i}.cls"
            path.write_text(text)
            self.paths[name] = path
        self.witness_out: dict[str, str] = {}
        self._checked: dict[tuple[str, str], str] = {}

    # --- execution ------------------------------------------------------

    def _new_file(self, name: str) -> Path:
        """A path with no file behind it.  Rewriting a file in place makes
        ext4 flush it on close, which adds disk latency to a round trip."""
        path = self.workdir / name
        path.unlink(missing_ok=True)
        return path

    def execute(self, op: Op) -> tuple[int, str]:
        """Run the op itself; this is the timed region."""
        if op.command != "roundtrip":
            argv = list(op.args) + [str(self.paths[op.classes[0]])]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()
        kind = op.args[1]
        if kind == "witness":
            return 0, self._roundtrip_witness(op.classes[0])
        if kind == "join":
            return 0, self._roundtrip_join(*op.classes)
        return 0, self._roundtrip_product(int(op.args[2]), *op.classes)

    def _stored_witness(self, name: str, tag: str):
        path = self._new_file(f"{tag}.witness.json")
        path.write_text(self.witness_out[name])
        w = storage.load("witness", path)
        require(spheres.verify_witness(w), f"loaded witness of {name}")
        return w

    def _roundtrip_witness(self, name: str) -> str:
        """Witness read path: load, verify, pull back to a disambiguation,
        extract the sphere again, and round-trip a sign representation."""
        w = self._stored_witness(name, "rt")
        d = disamb.pullback_disambiguation(w)
        w2 = disamb.sphere_from_disambiguation(d)
        require(spheres.verify_witness(w2), "extracted sphere")
        sphere_path = self._new_file("rt.sphere.json")
        storage.store(w2, sphere_path)
        rep_path = self._new_file("rt.rep.json")
        storage.store(standard_representation(w.cls), rep_path, cls=w.cls)
        rep = storage.load("representation", rep_path, cls=w.cls)
        require(signrank.verify_representation(w.cls, rep), "representation")
        return sphere_path.read_text() + rep_path.read_text()

    def _roundtrip_join(self, a: str, b: str) -> str:
        wa = self._stored_witness(a, "ja")
        wb = self._stored_witness(b, "jb")
        joined, _product = spheres.join_witness(wa, wb)
        require(spheres.verify_witness(joined), "joined witness")
        path = self._new_file("join.witness.json")
        storage.store(joined, path)
        return path.read_text()

    def _roundtrip_product(self, m: int, base: str, power: str) -> str:
        base_cls = storage.load("class", self.paths[base])
        power_cls = storage.load("class", self.paths[power])
        rep0 = signrank.universal_representation(len(base_cls))
        rep, cls = rep0, base_cls
        for _ in range(m - 1):
            rep, cls = signrank.product_representation(cls, rep, base_cls, rep0)
        require(cls.rows() == power_cls.rows(), "product class")
        require(signrank.verify_representation(power_cls, rep), "product representation")
        path = self._new_file("product.rep.json")
        storage.store(rep, path, cls=power_cls)
        return path.read_text()

    def run(self, op: Op, limit: float) -> Result:
        """Time one op under the in-process limit; ``check`` comes after."""
        if op.command == "roundtrip" and op.args[1] != "product":
            missing = [c for c in op.classes if c not in self.witness_out]
            if missing:
                return Result(op, 0.0, None, "", "dependency", f"no witness of {missing[0]}")
        if op.command == "witness":
            self.witness_out.pop(op.classes[0], None)
        before = reference_kernel()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
        start = time.perf_counter()
        try:
            code, stdout = self.execute(op)
        except OpTimeout as exc:
            return Result(op, limit, None, "", "timeout", f"over {limit:g} s in {where(exc)}")
        except CheckFailed as exc:
            return Result(op, time.perf_counter() - start, None, "", "check", str(exc))
        except Exception as exc:
            seconds = time.perf_counter() - start
            detail = f"{type(exc).__name__}: {exc} in {where(exc)}"
            return Result(op, seconds, None, "", "exception", detail)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        result = Result(op, time.perf_counter() - start, code, stdout)
        result.ref = (before + reference_kernel()) / 2
        if op.command == "witness" and code == 0:
            self.witness_out[op.classes[0]] = stdout
        return result

    # --- checks ---------------------------------------------------------

    def check(self, result: Result) -> None:
        """Mark a finished op that fails its golden or structural checks."""
        op = result.op
        if not result.ok:
            return
        golden = self.goldens.get(op.golden_key(self.corpus))
        if golden is not None:
            if golden["exit"] != result.exit:
                result.status = "mismatch"
                result.detail = f"exit {result.exit}, golden {golden['exit']}"
            elif golden["sha256"] != result.digest:
                result.status = "mismatch"
                result.detail = "stdout differs from the golden"
            return
        key = (op.op_id, result.digest)
        if key not in self._checked:
            try:
                structural_check(op, result.exit, result.stdout)
                self._checked[key] = ""
            except Exception as exc:
                self._checked[key] = f"{type(exc).__name__}: {exc}"
        if self._checked[key]:
            result.status = "check"
            result.detail = self._checked[key]


def structural_check(op: Op, code: Optional[int], stdout: str) -> None:
    """Checks that need no golden; raises on the first failure."""
    if code != op.expect_exit:
        raise CheckFailed(f"exit {code}, expected {op.expect_exit}")
    if code != 0 or op.command == "roundtrip":
        return  # round trips verified their certificates while running
    if not stdout:
        raise CheckFailed("empty stdout")
    if op.command in ("witness", "complex") or "--json" in op.args:
        kind = op.command if op.command in ("witness", "complex") else "report"
        payload = storage.open_envelope(stdout, kind)
        if kind == "witness":
            require(spheres.verify_witness(storage.witness_from_payload(payload)), "witness")
        elif kind == "complex":
            storage.complex_from_payload(payload)


def load_goldens(path: Path) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text())["ops"]
