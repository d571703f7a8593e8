"""Vanishing certificates from the corner sums C_i^eps.

For a divisor D = sum a_i Z_i in the upper-ray basis, each index i yields
the finite value set {C_i^eps} over all sign suffixes. The value set is
read off one downward sweep over the tower: C_i^eps = a_i + <beta_i^vee,
lambda> where lambda runs over the root-lattice vectors reachable from 0
by applying, for k = N down to i + 1, either lambda -> a_k beta_k + lambda
(eps_k = +) or lambda -> s_{beta_k}(lambda) (eps_k = -). Suffixes that
reach the same lambda are merged, so the set at index i never outgrows
the 2^(N-i) suffixes and is usually far smaller. Two one-sided
conditions per index follow:

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

from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, Optional, Sequence, Tuple

from .bott import BottData, _check_coeffs
from .errors import NotInPicardBasis, VanishingContradiction
from .rootsystem import _reflect_each
from .toric import CohomologyTable, DEFAULT_BOX_CAP, ToricDivisor, cohomology_table

Eta = Tuple[int, ...]


def _upper_coeffs(bott: BottData, divisor) -> Tuple[int, ...]:
    """Extract the a-vector, refusing divisors outside the upper-ray basis."""
    if isinstance(divisor, ToricDivisor):
        if any(divisor.b):
            raise NotInPicardBasis()
        return _check_coeffs(bott, divisor.a)
    return _check_coeffs(bott, divisor)


@dataclass(frozen=True)
class ConditionProfile:
    """Exact min and max of {C_i^eps} per index, with the two flags."""

    c_min: Tuple[int, ...]
    c_max: Tuple[int, ...]
    plus_ok: Tuple[bool, ...]
    minus_ok: Tuple[bool, ...]

    def __post_init__(self):
        for i, (lo, hi, p, m) in enumerate(
            zip(self.c_min, self.c_max, self.plus_ok, self.minus_ok), start=1
        ):
            if lo > hi:
                raise ValueError(f"inverted value range at index {i}")
            if p != (lo >= -1) or m != (hi <= -1):
                raise ValueError(f"flags inconsistent with bounds at index {i}")
            if p and m and not (lo == hi == -1):
                raise ValueError(f"both flags at index {i} need all values equal -1")


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
    letters, n = bott.word.letters, bott.length
    c_min, c_max = [0] * n, [0] * n
    reach = [(0,) * bott.gcm.n]
    for i in range(n, 0, -1):
        letter, a_i = letters[i - 1], a[i - 1]
        values, reflected = _reflect_each(bott.gcm, letter, reach)
        c_min[i - 1], c_max[i - 1] = a_i + min(values), a_i + max(values)
        if i > 1:
            # eps_i = +: lambda + a_i beta_i; eps_i = -: s_{beta_i}(lambda)
            l = letter - 1
            below = {lam[:l] + (lam[l] + a_i,) + lam[l + 1:] for lam in reach}
            below.update(reflected)
            reach = list(below)
    return ConditionProfile(
        c_min=tuple(c_min),
        c_max=tuple(c_max),
        plus_ok=tuple(v >= -1 for v in c_min),
        minus_ok=tuple(v <= -1 for v in c_max),
    )


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
    """vanishing_report without the toric table, for a checked a-vector."""
    n = bott.length
    profile = _condition_profile(bott, a)
    cert_minus, cert_plus = best_certificates(profile)
    vanished = sorted(set(cert_minus.vanished_degrees()) | set(cert_plus.vanished_degrees()))
    possible = tuple(i for i in range(n + 1) if i not in vanished)
    coverage = all(p or m for p, m in zip(profile.plus_ok, profile.minus_ok))
    single = possible[0] if coverage and len(possible) == 1 else None
    return VanishingReport(
        profile=profile,
        certificate_minus=cert_minus,
        certificate_plus=cert_plus,
        vanished=tuple(vanished),
        possible_window=possible,
        single_degree=single,
        everything_vanishes=not possible,
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
        raise ValueError(f"certificate {e} is not admissible for this divisor")
    cert = VanishingCertificate(eta=e)
    table = cohomology_table(bott, ToricDivisor.upper(a), cap=cap)
    return all(table.dims[i] == 0 for i in cert.vanished_degrees())
