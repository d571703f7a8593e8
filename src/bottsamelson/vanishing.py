"""Vanishing certificates from the corner sums C_i^eps.

For a divisor D = sum a_i Z_i in the upper-ray basis, each index i yields
the finite value set {C_i^eps} over all sign suffixes. The value set is
read off one downward sweep over the tower: C_i^eps = a_i + <beta_i^vee,
lambda> where lambda runs over the root-lattice vectors reachable from 0
by applying, for k = N down to i + 1, either lambda -> a_k beta_k + lambda
(eps_k = +) or lambda -> s_{beta_k}(lambda) (eps_k = -). Suffixes that
reach the same lambda are merged, so the set at index i never outgrows
the 2^(N-i) suffixes and is usually far smaller. The same sweep serves a
whole grid of a-vectors: C_i depends on a only through a_i and the suffix
(a_{i+1}, ..., a_N), so the sweep visits each distinct suffix once. Two
one-sided conditions per index follow:

  * plus_ok(i):  every C_i^eps >= -1,
  * minus_ok(i): every C_i^eps <= -1.

A certificate is a vector eta in {+, -, 0}^N whose nonzero entries only sit
at indices satisfying the matching condition. Each admissible eta forces

    H^i(D) = 0  for  i < #{eta_i = -}  and  i > N - #{eta_i = +}

on the Bott-Samelson variety and on its toric degeneration alike. The
report aggregates the two extreme certificates (all allowed minus signs,
all allowed plus signs); indices where both conditions hold (C_i^eps
identically -1) make both windows bite and can empty the set of possibly
nonzero degrees entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from operator import mul, or_
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .bott import BottData, _check_coeffs
from .errors import InconsistentData, IndexOutOfRange, NotInPicardBasis, VanishingContradiction
from .rootsystem import _reflect_each
from .toric import CohomologyTable, DEFAULT_BOX_CAP, ToricDivisor, cohomology_table

Eta = Tuple[int, ...]
Range = Tuple[int, int]


def _upper_coeffs(bott: BottData, divisor) -> Tuple[int, ...]:
    """Extract the a-vector, refusing divisors outside the upper-ray basis."""
    if isinstance(divisor, ToricDivisor):
        if any(divisor.b):
            raise NotInPicardBasis()
        return _check_coeffs(bott, divisor.a)
    return _check_coeffs(bott, divisor)


@dataclass(frozen=True)
class ConditionProfile:
    """Exact min and max of {C_i^eps} per index, with the two flags that
    _verdict derives from them."""

    c_min: Tuple[int, ...]
    c_max: Tuple[int, ...]
    plus_ok: Tuple[bool, ...] = field(init=False)
    minus_ok: Tuple[bool, ...] = field(init=False)

    def __post_init__(self):
        if len(self.c_max) != len(self.c_min):
            raise IndexOutOfRange("c_max vector of length", len(self.c_max), len(self.c_min))
        for i, (lo, hi) in enumerate(zip(self.c_min, self.c_max), start=1):
            if lo > hi:
                raise InconsistentData(f"inverted value range [{lo}, {hi}] at index {i}")
        verdict = _verdict(self.c_min, self.c_max)
        object.__setattr__(self, "plus_ok", verdict.plus_ok)
        object.__setattr__(self, "minus_ok", verdict.minus_ok)


def condition_profile(bott: BottData, a: Sequence[int]) -> ConditionProfile:
    """Exact min and max of C_i^eps over all sign suffixes, with the flags.

    One sweep from index N down to 1 carries the set of reachable vectors
    lambda (see the module docstring), deduplicated, so the cost grows with
    the number of distinct reachable vectors rather than with the 2^(N-i)
    suffixes; the flags are exact, not sampled. The set at index i never
    exceeds 2^(N-i). In finite type each lambda is a sum of at most N - i
    roots scaled by the a_k, so its coordinates are bounded and the set
    grows at most polynomially in N (degree the rank); in affine and
    indefinite type it can grow exponentially.
    """
    return _condition_profile(bott, _check_coeffs(bott, a))


def _condition_profile(bott: BottData, a: Tuple[int, ...]) -> ConditionProfile:
    """condition_profile for a checked a-vector."""
    return _vanishing_report(bott, a).profile


def _sweep_bounds(bott: BottData, ranges: Sequence[Range]) -> List[List[Tuple[int, int]]]:
    """Pairing bounds for every suffix of a grid of a-vectors, a_i in ranges[i-1].

    tables[i-1][k] is (min, max) of <beta_i^vee, lambda> over the vectors
    lambda reachable from 0 along the k-th suffix (a_{i+1}, ..., a_N) of the
    grid, suffixes numbered in lexicographic order; then C_i^eps runs over
    a_i plus that interval. A depth-first walk over the suffixes, with an
    explicit stack so the depth N is not bounded by Python's recursion
    limit, keeps one deduplicated reach set per suffix on the current path.
    The bounds of a suffix one index lower are read off its parent's set:
    pairing with beta_{i-1}^vee is linear, so min and max over
    {lambda + a_i beta_i} and {s_{beta_i}(lambda)} need no new set. So
    sets are built for index 2 and up only, and each table holds at most
    V / (w_1 ... w_i) entries for a grid of volume V and range widths w.
    """
    gcm, letters, n = bott.gcm, bott.word.letters, bott.length
    counts = _suffix_counts(ranges)
    tables: List[List[Tuple[int, int]]] = [[(0, 0)] * count for count in counts]
    stack: list = []
    p, k, reach = n - 1, 0, [(0,) * gcm.n]  # 0-based position of index i = p + 1
    while True:
        if p > 0:
            letter = letters[p]
            values, reflected = _reflect_each(gcm, letter, reach)
            row = gcm.entries[letters[p - 1] - 1]
            coupling = row[letter - 1]
            kept = [sum(map(mul, row, v)) for v in reach]
            turned = [x - coupling * y for x, y in zip(kept, values)]
            k_lo, k_hi, t_lo, t_hi = min(kept), max(kept), min(turned), max(turned)
            lo, hi = ranges[p]
            table, step = tables[p - 1], counts[p]
            for a_p in range(lo, hi + 1):
                shift = coupling * a_p
                table[(a_p - lo) * step + k] = (min(k_lo + shift, t_lo), max(k_hi + shift, t_hi))
            if p > 1:
                stack.append([p, k, reach, reflected, lo])
        if not stack:
            return tables
        # next child of the deepest open suffix; a finished suffix leaves the
        # stack before its last child is built, so width-1 ranges hold one set
        frame = stack[-1]
        q, k, parent, reflected, a_q = frame
        lo, hi = ranges[q]
        if a_q == hi:
            stack.pop()
        else:
            frame[4] = a_q + 1
        # eps = +: lambda + a_q beta_q; eps = -: s_{beta_q}(lambda)
        l = letters[q] - 1
        below = {lam[:l] + (lam[l] + a_q,) + lam[l + 1:] for lam in parent}
        below.update(reflected)
        p, k, reach = q - 1, (a_q - lo) * counts[q] + k, list(below)


def _suffix_counts(ranges: Sequence[Range]) -> List[int]:
    """counts[p]: the number of suffixes (a_{p+2}, ..., a_N) of the grid."""
    counts = [1] * len(ranges)
    for p in range(len(ranges) - 1, 0, -1):
        lo, hi = ranges[p]
        counts[p - 1] = counts[p] * (hi - lo + 1)
    return counts


def _grid_bounds(
    bott: BottData, ranges: Sequence[Range]
) -> Iterator[Tuple[Tuple[int, ...], List[int], List[int]]]:
    """(a, c_min, c_max) for every a in the grid, in lexicographic order."""
    tables = _sweep_bounds(bott, ranges)
    counts = _suffix_counts(ranges)
    positions = range(len(ranges) - 1, -1, -1)
    for a in product(*(range(lo, hi + 1) for lo, hi in ranges)):
        c_min, c_max = list(a), list(a)
        k = 0
        for p in positions:
            lo, hi = tables[p][k]
            c_min[p] += lo
            c_max[p] += hi
            k += (a[p] - ranges[p][0]) * counts[p]
        yield a, c_min, c_max


class _Verdict(NamedTuple):
    plus_ok: Tuple[bool, ...]
    minus_ok: Tuple[bool, ...]
    vanished: Tuple[int, ...]
    possible_window: Tuple[int, ...]
    single_degree: Optional[int]
    everything_vanishes: bool


def _verdict(c_min: Sequence[int], c_max: Sequence[int]) -> _Verdict:
    """Flags and conclusions from the per-index bounds of C_i^eps.

    The two extreme certificates take every allowed minus and every allowed
    plus sign, so degrees below the minus count and above N minus the plus
    count vanish. single_degree is reported only when every index carries a
    flag and exactly one degree survives.
    """
    n = len(c_min)
    plus_ok = tuple(v >= -1 for v in c_min)
    minus_ok = tuple(v <= -1 for v in c_max)
    low, high = sum(minus_ok), n + 1 - sum(plus_ok)
    possible = tuple(range(low, high))
    vanished = tuple(d for d in range(n + 1) if d < low or d >= high)
    single = possible[0] if len(possible) == 1 and all(map(or_, plus_ok, minus_ok)) else None
    return _Verdict(plus_ok, minus_ok, vanished, possible, single, not possible)


@dataclass(frozen=True)
class VanishingCertificate:
    """An admissible sign assignment eta in {+1, 0, -1}^N."""

    eta: Eta

    @property
    def minus_count(self) -> int:
        return sum(1 for s in self.eta if s == -1)

    @property
    def plus_count(self) -> int:
        return sum(1 for s in self.eta if s == 1)

    def vanished_degrees(self) -> Tuple[int, ...]:
        n = len(self.eta)
        low = range(0, self.minus_count)
        high = range(n - self.plus_count + 1, n + 1)
        return tuple(list(low) + list(high))

    def eta_string(self) -> str:
        return "".join({1: "+", 0: "0", -1: "-"}[s] for s in self.eta)


def best_certificates(profile: ConditionProfile) -> Tuple[VanishingCertificate, VanishingCertificate]:
    """The two extreme certificates: all allowed minus, all allowed plus."""
    minus = VanishingCertificate(
        eta=tuple(-1 if ok else 0 for ok in profile.minus_ok)
    )
    plus = VanishingCertificate(
        eta=tuple(1 if ok else 0 for ok in profile.plus_ok)
    )
    return minus, plus


def admissible_etas(profile: ConditionProfile) -> Iterator[Eta]:
    """All sign assignments whose nonzero entries respect the flags."""
    options = []
    for p, m in zip(profile.plus_ok, profile.minus_ok):
        opts = [0]
        if p:
            opts.append(1)
        if m:
            opts.append(-1)
        options.append(opts)
    return product(*options)


def is_admissible(profile: ConditionProfile, eta: Sequence[int]) -> bool:
    if len(eta) != len(profile.plus_ok):
        return False
    for s, p, m in zip(eta, profile.plus_ok, profile.minus_ok):
        if s == 1 and not p:
            return False
        if s == -1 and not m:
            return False
        if s not in (-1, 0, 1):
            return False
    return True


@dataclass(frozen=True)
class VanishingReport:
    """Aggregated vanishing conclusions for one upper-ray divisor."""

    profile: ConditionProfile
    certificate_minus: VanishingCertificate
    certificate_plus: VanishingCertificate
    vanished: Tuple[int, ...]
    possible_window: Tuple[int, ...]
    single_degree: Optional[int]
    everything_vanishes: bool
    toric: Optional[CohomologyTable] = None


def vanishing_report(
    bott: BottData,
    divisor,
    with_toric: bool = True,
    cap: int = DEFAULT_BOX_CAP,
) -> VanishingReport:
    """Full vanishing analysis of a divisor in the upper-ray basis.

    divisor is either a coefficient sequence or a ToricDivisor with b = 0
    (anything else raises NotInPicardBasis). The vanished set is the union
    over both extreme certificates; it is never empty because the last
    index always satisfies at least one condition (C_N^eps = a_N for every
    suffix). single_degree is reported only when every index carries a
    flag and exactly one degree survives. With with_toric the exact toric
    table is attached and checked to vanish in every claimed degree.
    """
    a = _upper_coeffs(bott, divisor)
    report = _vanishing_report(bott, a)
    if not with_toric:
        return report
    toric = cohomology_table(bott, ToricDivisor.upper(a), cap=cap)
    _check_vanished(report.vanished, toric)
    return replace(report, toric=toric)


def _vanishing_report(bott: BottData, a: Tuple[int, ...]) -> VanishingReport:
    """vanishing_report without the toric table, for a checked a-vector:
    the grid sweep over the single point a."""
    ((_, c_min, c_max),) = _grid_bounds(bott, tuple((v, v) for v in a))
    verdict = _verdict(c_min, c_max)
    profile = ConditionProfile(c_min=tuple(c_min), c_max=tuple(c_max))
    cert_minus, cert_plus = best_certificates(profile)
    return VanishingReport(
        profile=profile,
        certificate_minus=cert_minus,
        certificate_plus=cert_plus,
        vanished=verdict.vanished,
        possible_window=verdict.possible_window,
        single_degree=verdict.single_degree,
        everything_vanishes=verdict.everything_vanishes,
    )


def _check_vanished(vanished: Sequence[int], table: CohomologyTable) -> None:
    """Raise VanishingContradiction at the first vanished degree that the
    table says is nonzero."""
    for i in vanished:
        if table.dims[i] != 0:
            raise VanishingContradiction(i)


def check_toric_vanishing(
    bott: BottData,
    divisor,
    eta: Sequence[int],
    cap: int = DEFAULT_BOX_CAP,
) -> bool:
    """Verify one certificate against the exact toric table.

    eta must be admissible for the divisor's condition profile; the return
    value says whether the toric table vanishes in every degree the
    certificate claims.
    """
    a = _upper_coeffs(bott, divisor)
    profile = _condition_profile(bott, a)
    e = tuple(int(s) for s in eta)
    if not is_admissible(profile, e):
        raise InconsistentData(f"certificate {e} is not admissible for this divisor")
    cert = VanishingCertificate(eta=e)
    table = cohomology_table(bott, ToricDivisor.upper(a), cap=cap)
    return all(table.dims[i] == 0 for i in cert.vanished_degrees())
