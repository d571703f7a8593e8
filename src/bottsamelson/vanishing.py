"""Vanishing certificates from the corner sums C_i^eps.

For a divisor D = sum a_i Z_i in the upper-ray basis, each index i yields
the finite value set {C_i^eps} over all sign suffixes: C_i^eps = a_i +
<beta_i^vee, lambda> where lambda runs over the set S_i of root-lattice
vectors reachable from 0 by applying, for k = N down to i + 1, either
lambda -> a_k beta_k + lambda (eps_k = +) or lambda -> s_{beta_k}(lambda)
(eps_k = -). Only the min and max of that set matter, and they are
values of the support function h_i(f) = max of f(lambda) over S_i at the
coroot functionals +-beta_i^vee. One downward sweep carries h_i on the
directions f that the indices below need, never S_i itself: a
translation adds a_k f(beta_k) and a reflection moves the direction to
f o s_{beta_k}, so the recursion is exact for any generalized Cartan
matrix, and its cost per index is the number of directions. They are
real coroots, and coroots that differ by the null coroot of affine type
are one functional, so in finite and affine type there are at most as
many as the roots of the (underlying) finite system at any N; in
indefinite type their number can grow exponentially. The same sweep
serves a whole grid of a-vectors: C_i depends on a only through a_i and
the suffix (a_{i+1}, ..., a_N), so the sweep visits each distinct suffix
once. Two one-sided conditions per index follow:

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

What the report concludes depends on the flags only through three
numbers, the flag key: how many indices satisfy minus_ok, how many satisfy
plus_ok, and whether every index satisfies at least one. The minus
certificate kills the degrees below the first count, the plus certificate
those above N minus the second, and which indices carry the flags does not
matter; a single surviving degree is claimed only when every index is
flagged. So a grid of a-vectors has at most 2(N + 1)^2 distinct
conclusions, and a scan keys every grid point in one more downward pass
over the sweep's tables, then builds the conclusions once per key; a
single report keys its one point by the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .bott import BottData, _check_coeffs
from .errors import InconsistentData, IndexOutOfRange, NotInPicardBasis, VanishingContradiction, _ints
from .toric import CohomologyTable, DEFAULT_BOX_CAP, ToricDivisor, cohomology_table

Eta = Tuple[int, ...]
Range = Tuple[int, int]
_FlagKey = Tuple[int, int, bool]  # (#minus_ok, #plus_ok, every index flagged)


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
    _flags derives from them."""

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
        plus_ok, minus_ok = _flags(self.c_min, self.c_max)
        object.__setattr__(self, "plus_ok", plus_ok)
        object.__setattr__(self, "minus_ok", minus_ok)


def condition_profile(bott: BottData, a: Sequence[int]) -> ConditionProfile:
    """Exact min and max of C_i^eps over all sign suffixes, with the flags.

    The sweep of _sweep_bounds on a one-point grid: one pass from index N
    down to 1 carries a support value per coroot direction of the tower
    (BottData.plan, built once per tower), so the cost is the number of
    directions per index, not the 2^(N-i) suffixes or the reachable
    vectors. The flags are exact, not sampled. In finite type the
    directions are coroots, at most |Phi| per index at any N (12 for A3,
    24 for D4). In affine type they are coroots modulo the null coroot,
    which pairs to zero with every root, so they are as few as the roots
    of the underlying finite system (2 for A1^(1), 6 for A2^(1)). In
    indefinite type their number can grow exponentially (1,338 at N = 26
    and 115,194 at N = 50 on seeded words over a rank-3 matrix).
    """
    return _vanishing_report(bott, _check_coeffs(bott, a)).profile


def _sweep_bounds(bott: BottData, ranges: Sequence[Range]) -> List[List[Tuple[int, int]]]:
    """Pairing bounds for every suffix of a grid of a-vectors, a_i in ranges[i-1].

    tables[i-1][k] is (min, max) of <beta_i^vee, lambda> over the vectors
    lambda reachable from 0 along the k-th suffix (a_{i+1}, ..., a_N) of the
    grid, suffixes numbered in lexicographic order; then C_i^eps runs over
    a_i plus that interval. The set S_i of those lambda is never built:
    the sweep carries its support function h_i(f) = max of f(lambda) over
    S_i, one value per direction f of D_i (see bott._direction_plan), from
    h_N = 0. S_{i-1} is S_i + a_i alpha_l together with s_l(S_i), l = l_i,
    and <s_l gamma, lambda> = <gamma, s_l lambda>, so

        h_{i-1}(f) = max(h_i(f) + a_i f_l, h_i(s_l f)),

    exact for any generalized Cartan matrix; the bounds are h_i(A[l_i])
    and -h_i(-A[l_i]). A depth-first walk over the suffixes, with an
    explicit stack so the depth N is not bounded by Python's recursion
    limit, keeps one list of |D_i| values per suffix on the current path.
    The bounds of a suffix one index lower are read off its parent's list,
    from the two directions +-A[l_{i-1}] alone, so lists are built for
    index 2 and up only, and each table holds at most V / (w_1 ... w_i)
    entries for a grid of volume V and range widths w.
    """
    plan, letters = bott.plan, bott.word.letters
    counts = _suffix_counts(ranges)
    tables: List[List[Tuple[int, int]]] = [[(0, 0)] * count for count in counts]
    stack: list = []
    # 0-based position of index i = p + 1; h holds h_i over D_i
    p, k = bott.length - 1, 0
    h = [0] * plan.size[p]
    while True:
        if p > 0:
            l, top, bottom = letters[p], plan.top[p - 1], plan.bottom[p - 1]
            turned = [h[j] for j in plan.turn[l][: plan.size[p - 1]]]
            coupling = plan.coef[l][top]
            k_lo, k_hi, t_lo, t_hi = -h[bottom], h[top], -turned[bottom], turned[top]
            lo, hi = ranges[p]
            table, step = tables[p - 1], counts[p]
            for a_p in range(lo, hi + 1):
                shift = coupling * a_p
                table[(a_p - lo) * step + k] = (min(k_lo + shift, t_lo), max(k_hi + shift, t_hi))
            if p > 1:
                stack.append([p, k, lo, h, turned])
        if not stack:
            return tables
        # next child of the deepest open suffix; a finished suffix leaves the
        # stack before its last child is built, so width-1 ranges hold one list
        frame = stack[-1]
        q, k, a_q, h, turned = frame
        lo, hi = ranges[q]
        if a_q == hi:
            stack.pop()
        else:
            frame[2] = a_q + 1
        # eps = +: f(lambda + a_q alpha_l) = f(lambda) + a_q f_l; eps = -: s_l f
        p, k = q - 1, (a_q - lo) * counts[q] + k
        h = [max(x + a_q * c, t) for x, c, t in zip(h, plan.coef[letters[q]], turned)]


def _suffix_counts(ranges: Sequence[Range]) -> List[int]:
    """counts[p]: the number of suffixes (a_{p+2}, ..., a_N) of the grid."""
    counts = [1] * len(ranges)
    for p in range(len(ranges) - 1, 0, -1):
        lo, hi = ranges[p]
        counts[p - 1] = counts[p] * (hi - lo + 1)
    return counts


def _flags(c_min: Sequence[int], c_max: Sequence[int]) -> Tuple[Tuple[bool, ...], Tuple[bool, ...]]:
    """The flag rule: plus_ok(i) is min C_i^eps >= -1, minus_ok(i) is
    max C_i^eps <= -1."""
    return tuple(v >= -1 for v in c_min), tuple(v <= -1 for v in c_max)


def _flag_keys(ranges: Sequence[Range], tables: List[List[Tuple[int, int]]]) -> List[_FlagKey]:
    """The flag key of every a-vector of a grid, in lexicographic order.

    tables are _sweep_bounds(bott, ranges). One pass from index N down to 1
    keys every suffix (a_i, ..., a_N) of the grid: index i's two flags,
    from a_i and tables[i-1][k] by the rule of _flags, are added to the key
    of the k-th suffix (a_{i+1}, ..., a_N), which sits at position k of the
    previous pass. Keys of index i are numbered like the entries of
    tables[i-2], so after index 1 there is one key per grid point, in the
    order of product(ranges).
    """
    keys: List[_FlagKey] = [(0, 0, True)]
    for p in range(len(ranges) - 1, -1, -1):
        lo, hi = ranges[p]
        table = tables[p]
        # t = -1 - a_i, so b_lo >= t is plus_ok(i) and b_hi <= t is minus_ok(i)
        keys = [
            (minus + (b_hi <= t), plus + (b_lo >= t), every and (b_lo >= t or b_hi <= t))
            for t in range(-1 - lo, -2 - hi, -1)
            for (b_lo, b_hi), (minus, plus, every) in zip(table, keys)
        ]
    return keys


class _Conclusions(NamedTuple):
    vanished: Tuple[int, ...]
    possible_window: Tuple[int, ...]
    single_degree: Optional[int]
    everything_vanishes: bool


def _conclusions(n: int, minus: int, plus: int, every: bool) -> _Conclusions:
    """What the two extreme certificates conclude from a flag key.

    They take every allowed minus and every allowed plus sign, so degrees
    below the minus count and above N minus the plus count vanish.
    single_degree is reported only when every index carries a flag and
    exactly one degree survives.
    """
    low, high = minus, n + 1 - plus
    possible = tuple(range(low, high))
    vanished = tuple(d for d in range(n + 1) if d < low or d >= high)
    single = possible[0] if len(possible) == 1 and every else None
    return _Conclusions(vanished, possible, single, not possible)


@dataclass(frozen=True)
class VanishingCertificate:
    """An admissible sign assignment eta in {+1, 0, -1}^N."""

    eta: Eta

    def __post_init__(self):
        eta = _ints(self.eta, "sign")
        object.__setattr__(self, "eta", eta)
        for pos, s in enumerate(eta, start=1):
            if s not in (-1, 0, 1):
                raise IndexOutOfRange(f"sign at position {pos}", s, "-1, 0 or +1")

    @property
    def minus_count(self) -> int:
        return sum(1 for s in self.eta if s == -1)

    @property
    def plus_count(self) -> int:
        return sum(1 for s in self.eta if s == 1)

    def vanished_degrees(self) -> Tuple[int, ...]:
        return _conclusions(len(self.eta), self.minus_count, self.plus_count, False).vanished

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
    eta = _ints(eta, "sign")
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
    the grid sweep over the single point a, whose tables hold one entry
    each."""
    ranges = tuple((v, v) for v in a)
    tables = _sweep_bounds(bott, ranges)
    profile = ConditionProfile(
        c_min=tuple(v + lo for v, ((lo, _),) in zip(a, tables)),
        c_max=tuple(v + hi for v, ((_, hi),) in zip(a, tables)),
    )
    (key,) = _flag_keys(ranges, tables)
    verdict = _conclusions(len(a), *key)
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
    profile = _vanishing_report(bott, a).profile
    e = _ints(eta, "certificate")
    if not is_admissible(profile, e):
        raise InconsistentData(f"certificate {e} is not admissible for this divisor")
    cert = VanishingCertificate(eta=e)
    table = cohomology_table(bott, ToricDivisor.upper(a), cap=cap)
    return all(table.dims[i] == 0 for i in cert.vanished_degrees())
