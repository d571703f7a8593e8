"""Shared helpers: seeded random generators for matrices, words, divisors,
and an in-process runner for the command line.

Every randomized test seeds its own Random instance, so the suite is fully
deterministic run to run.
"""

from __future__ import annotations

import importlib.util
import io
import random
import signal
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Tuple

import pytest

from bottsamelson import (
    BottData,
    GeneralizedCartanMatrix,
    ToricDivisor,
    Word,
    build_bott_data,
    cartan_of_type,
    cli,
    weight_box,
)


# Singular (affine) Cartan matrices: the null root pairs to zero with every
# coroot, so the sweeps merge reachable vectors that differ by a multiple of it.
SINGULAR_GCMS = {
    "A1^(1)": GeneralizedCartanMatrix(n=2, entries=((2, -2), (-2, 2))),
    "A2^(1)": GeneralizedCartanMatrix(n=3, entries=((2, -1, -1), (-1, 2, -1), (-1, -1, 2))),
    "A2^(2)": GeneralizedCartanMatrix(n=2, entries=((2, -1), (-4, 2))),
}


def random_gcm(rng: random.Random, n: int, low: int = -3, zero_chance: float = 0.4
               ) -> GeneralizedCartanMatrix:
    """Random generalized Cartan matrix: 2 on the diagonal, off-diagonal
    entries nonpositive with zeros placed symmetrically."""
    entries = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < zero_chance:
                continue
            entries[i][j] = rng.randint(low, -1)
            entries[j][i] = rng.randint(low, -1)
    return GeneralizedCartanMatrix(n=n, entries=tuple(tuple(r) for r in entries))


def bench_workloads():
    """bench/workloads.py, the benchmark's seeded problem generator."""
    name = "bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def random_word(rng: random.Random, n: int, length: int) -> Word:
    return Word(tuple(rng.randint(1, n) for _ in range(length)))


def random_coeffs(rng: random.Random, length: int, bound: int) -> Tuple[int, ...]:
    return tuple(rng.randint(-bound, bound) for _ in range(length))


def random_instance(
    rng: random.Random,
    max_rank: int = 4,
    max_length: int = 6,
    coeff_bound: int = 4,
    box_limit: int | None = None,
    low: int = -3,
):
    """One random (bott, a). With box_limit set, resample until the weight
    box of the divisor stays below that many lattice points, so exhaustive
    scans stay affordable; the limit only conditions the distribution, it
    never alters any computed value."""
    while True:
        n = rng.randint(1, max_rank)
        length = rng.randint(1, max_length)
        gcm = random_gcm(rng, n, low=low)
        bott = build_bott_data(gcm, random_word(rng, n, length))
        a = random_coeffs(rng, length, coeff_bound)
        if box_limit is not None:
            box = weight_box(bott, ToricDivisor.upper(a))
            if box.num_points > box_limit:
                continue
        return bott, a


@contextmanager
def hard_deadline(seconds: float):
    """Fail the test if its body is still running after the given wall
    time, interrupting the call rather than timing it once it returns, so
    a regression that makes a sweep exponential fails instead of hanging
    the suite. Uses SIGALRM, so it needs the main thread of a POSIX
    process; elsewhere the body runs unbounded."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"still running after the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _Capture(io.StringIO):
    """A text stream that also copies each write to a shared one, so stdout
    and stderr can be read apart and interleaved."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


def run_cli(args, stdin: str | bytes | None = None) -> SimpleNamespace:
    """Run `bottsamelson ARGS` in this process with stdin from a str or
    bytes, read through a strict UTF-8 text stream. The result carries
    exit_code, stdout, stderr and output (both streams, interleaved)."""
    data = stdin.encode("utf-8") if isinstance(stdin, str) else stdin or b""
    shared = io.StringIO()
    out, err = _Capture(shared), _Capture(shared)
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    if not isinstance(code, int):
        code = 0 if code is None else 1
    return SimpleNamespace(exit_code=code, output=shared.getvalue(),
                           stdout=out.getvalue(), stderr=err.getvalue())


@pytest.fixture(scope="session")
def rank3_tower() -> BottData:
    """The rank-3 type A tower on the word (2, 1, 3, 2) used throughout."""
    return build_bott_data(cartan_of_type("A", 3), Word((2, 1, 3, 2)))
