"""Bott tower data attached to a word in simple reflections.

A word w = (l_1, ..., l_N) with letters in 1..n picks, for each position i,
the simple root beta_i = alpha_{l_i} of a generalized Cartan matrix. The
iterated P^1-bundle it defines degenerates to a smooth projective toric
variety of dimension N (a Bott tower) whose fan lives in Z^N and has the
2N rays

    e_i^+ = i-th standard basis vector,
    e_i^- = -e_i^+ - sum_{j>i} beta_ij e_j^+,

where beta_ij = <beta_i^vee, beta_j>. Every choice of one ray per index
spans a maximal cone, giving 2^N smooth cones indexed by sign vectors.

This module computes the combinatorial invariants of that tower that drive
cohomology: the reflection-twisted pairings alpha_ij^eps, the corner sums
C_i^eps, the corner weights x^eps, and the support function evaluation phi.
Positions i, j are 1-based; sign vectors are tuples of +1/-1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from operator import mul
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import IndexOutOfRange, NotStrictlyIncreasing
from .rootsystem import GeneralizedCartanMatrix

if TYPE_CHECKING:
    from .toric import ToricDivisor

SignVector = Tuple[int, ...]
Weight = Tuple[int, ...]
Ray = Tuple[int, int]  # (position 1..N, sign +1/-1)


@dataclass(frozen=True)
class Word:
    """A nonempty word in simple reflections, stored as 1-based letters."""

    letters: Tuple[int, ...]

    def __post_init__(self):
        letters = tuple(int(l) for l in self.letters)
        object.__setattr__(self, "letters", letters)
        if not letters:
            raise IndexOutOfRange("word length", 0, ">= 1")
        for pos, l in enumerate(letters, start=1):
            if l < 1:
                raise IndexOutOfRange("word letter at position", pos, ">= 1")

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class BottData:
    """Frozen fan data for the Bott tower of a word.

    beta[i-1][j-1] holds <beta_i^vee, beta_j>; rays_plus and rays_minus hold
    the ray lattice vectors, indexed by position.
    """

    gcm: GeneralizedCartanMatrix
    word: Word
    beta: Tuple[Tuple[int, ...], ...]
    rays_plus: Tuple[Tuple[int, ...], ...]
    rays_minus: Tuple[Tuple[int, ...], ...]

    @property
    def length(self) -> int:
        return len(self.word.letters)

    def ray(self, ray: Ray) -> Tuple[int, ...]:
        """Lattice vector of e_i^+ or e_i^-."""
        i, s = ray
        _check_position(self, i)
        return self.rays_plus[i - 1] if s > 0 else self.rays_minus[i - 1]

    @cached_property
    def plan(self) -> "_Plan":
        """The coroot directions of the word (_direction_plan), built on
        first use and kept with the tower; not a field, so equality, hash
        and repr do not see it."""
        return _direction_plan(self)


def build_bott_data(gcm: GeneralizedCartanMatrix, word) -> BottData:
    """Assemble the fan data of the Bott tower for a word.

    word may be a Word or any sequence of 1-based letters; letters must not
    exceed the rank of the Cartan matrix.
    """
    w = word if isinstance(word, Word) else Word(tuple(word))
    for pos, l in enumerate(w.letters, start=1):
        if l > gcm.n:
            raise IndexOutOfRange(f"word letter at position {pos}", l, f"1..{gcm.n}")
    letters = w.letters
    # one Cartan row per distinct letter: row l holds <alpha_l^vee, beta_j> for every j
    rows = {l: tuple([gcm.entries[l - 1][m - 1] for m in letters]) for l in set(letters)}
    beta = tuple(rows[l] for l in letters)
    N = len(letters)
    return BottData(
        gcm=gcm,
        word=w,
        beta=beta,
        rays_plus=tuple((0,) * i + (1,) + (0,) * (N - 1 - i) for i in range(N)),
        rays_minus=tuple(
            (0,) * i + (-1,) + tuple([-x for x in row[i + 1:]]) for i, row in enumerate(beta)
        ),
    )


class _Plan(NamedTuple):
    """The coroot directions of a word, which the condition sweep
    (vanishing._sweep_bounds) and the alpha summary (analysis._alpha_summary)
    both read.

    Direction f is a coroot functional lambda -> <gamma, lambda>, stored as
    its values f_k = <gamma, alpha_k> on the simple roots of the word's
    letters (every vector either reader pairs lies in their span), and
    numbered in the order it is found. D_i, the directions found by step i,
    is the first |D_i| of them. Per 0-based position p: size[p] = |D_{p+1}|,
    and top[p] and bottom[p] are the numbers of A[l_{p+1}] = beta_{p+1}^vee
    and -A[l_{p+1}], whose support values in the condition sweep are the
    max and -min of <beta_{p+1}^vee, lambda>. Per letter l, for direction
    d: coef[l][d] = f_l, the value at alpha_l, and turn[l][d] is the number
    of s_l f = f - f_l A[l]. A step i of letter l fills both over D_{i-1},
    so they hold every direction that a reader reaches before step i.
    """

    size: List[int]
    top: List[int]
    bottom: List[int]
    coef: Dict[int, List[int]]
    turn: Dict[int, List[int]]


def _direction_plan(bott: BottData) -> _Plan:
    """One upward pass: D_1 = {+-A[l_1]}, and D_i is D_{i-1}, its image
    under s_{l_i}, and +-A[l_i]. Each D_i lies in {+-A[l]} and its images
    under the Weyl group, so in finite type it never holds more than the
    roots (12 for A3, 24 for D4) at any N. Each direction is reflected at
    most once per letter: a step of letter l only reflects the directions
    found since its previous step. Read it through BottData.plan, which
    builds it once per tower.

    A direction gets the next number when number.setdefault first sees it,
    and directions[k] is the direction numbered k."""
    gcm, letters = bott.gcm, bott.word.letters
    keys = sorted(set(letters))
    column = {l: k for k, l in enumerate(keys)}
    rows = {l: tuple([gcm.entries[l - 1][k - 1] for k in keys]) for l in keys}
    negated = {l: tuple([-x for x in row]) for l, row in rows.items()}
    directions: List[Tuple[int, ...]] = []
    number: Dict[Tuple[int, ...], int] = {}
    plan = _Plan([], [], [], {l: [] for l in keys}, {l: [] for l in keys})
    for l in letters:
        row, coef, turn, at = rows[l], plan.coef[l], plan.turn[l], column[l]
        for j in range(len(coef), len(directions)):
            f = directions[j]
            c = f[at]
            coef.append(c)
            if c:  # else s_l f = f, number j
                f = tuple([x - c * y for x, y in zip(f, row)])
                j = number.setdefault(f, len(directions))
                if j == len(directions):
                    directions.append(f)
            turn.append(j)
        for f, ends in ((row, plan.top), (negated[l], plan.bottom)):
            j = number.setdefault(f, len(directions))
            if j == len(directions):
                directions.append(f)
            ends.append(j)
        plan.size.append(len(directions))
    return plan


def signs(pattern: str) -> SignVector:
    """Parse a sign string like '+-+' into a tuple of +1/-1."""
    table = {"+": 1, "-": -1}
    for pos, ch in enumerate(pattern, start=1):
        if ch not in table:
            raise IndexOutOfRange(f"sign character at position {pos}", repr(ch), "'+' or '-'")
    return tuple(table[ch] for ch in pattern)


def all_sign_vectors(N: int) -> Tuple[SignVector, ...]:
    """All 2^N sign vectors in a fixed deterministic order (+ before -)."""
    out = [()]
    for _ in range(N):
        out = [v + (s,) for v in out for s in (1, -1)]
    return tuple(out)


def _check_position(bott: BottData, i: int) -> None:
    if not 1 <= i <= bott.length:
        raise IndexOutOfRange("position", i, f"1..{bott.length}")


def _check_signs(bott: BottData, eps: Sequence[int]) -> SignVector:
    e = tuple(int(s) for s in eps)
    if len(e) != bott.length:
        raise IndexOutOfRange("sign vector of length", len(e), bott.length)
    for pos, s in enumerate(e, start=1):
        if s not in (1, -1):
            raise IndexOutOfRange(f"sign at position {pos}", s, "+1 or -1")
    return e


def _check_coeffs(bott: BottData, a: Sequence[int], what: str = "coefficient") -> Tuple[int, ...]:
    c = tuple(int(v) for v in a)
    if len(c) != bott.length:
        raise IndexOutOfRange(f"{what} vector of length", len(c), bott.length)
    return c


def _check_divisor(bott: BottData, divisor: "ToricDivisor") -> None:
    if len(divisor.a) != bott.length:
        raise IndexOutOfRange("divisor of length", len(divisor.a), bott.length)


def _alpha(bott: BottData, i: int, j: int, minus: Tuple[int, ...]) -> int:
    """alpha_ij^eps from the increasing positions k in (i, j) with eps_k = -1.

    Reflects the root beta_j in simple-root coordinates straight on the
    Cartan rows: s_l lowers coordinate l by <alpha_l^vee, gamma>, the
    product of row l with gamma. Trusts its arguments: 1 <= i < j <= N and
    minus inside (i, j). It does not read the direction plan, so big_c
    stays independent of the condition sweep.
    """
    letters, rows = bott.word.letters, bott.gcm.entries
    gamma = [0] * bott.gcm.n
    gamma[letters[j - 1] - 1] = 1
    for k in reversed(minus):  # the factor with largest k acts first
        l = letters[k - 1] - 1
        gamma[l] -= sum(map(mul, rows[l], gamma))
    return sum(map(mul, rows[letters[i - 1] - 1], gamma))


def alpha_reflect(bott: BottData, i: int, j: int, eps: Sequence[int]) -> int:
    """alpha_ij^eps computed by composing simple reflections.

    Applies s_{beta_k} for every k strictly between i and j with eps_k = -1,
    largest k first, to the root beta_j, then pairs with beta_i^vee. Only
    the entries of eps strictly between i and j are read.
    """
    return _alpha(bott, i, j, _interior_minus(bott, i, j, eps))


def alpha_path(bott: BottData, i: int, j: int, eps: Sequence[int]) -> int:
    """alpha_ij^eps computed as a signed sum over increasing chains.

    Sums (-1)^(k+1) beta_{i_0 i_1} ... beta_{i_{k-1} i_k} over all chains
    i = i_0 < i_1 < ... < i_k = j whose interior vertices all carry eps = -1.
    Independent route to the same number as alpha_reflect.
    """
    return _chain_sum(bott.beta, i, j, _interior_minus(bott, i, j, eps))


def _interior_minus(bott: BottData, i: int, j: int, eps: Sequence[int]) -> Tuple[int, ...]:
    """The increasing positions k in (i, j) with eps_k = -1, after checking
    that i < j are positions and eps is a sign vector of the tower."""
    _check_position(bott, i)
    _check_position(bott, j)
    if i >= j:
        raise NotStrictlyIncreasing(i, j)
    e = _check_signs(bott, eps)
    return tuple(k for k in range(i + 1, j) if e[k - 1] == -1)


def _chain_sum(beta, i: int, j: int, minus: Sequence[int]) -> int:
    """Sum of (-1)^(k+1) beta_{i_0 i_1} ... beta_{i_{k-1} i_k} over the chains
    i = i_0 < i_1 < ... < i_k = j with every interior vertex in minus."""
    total = 0
    for size in range(len(minus) + 1):
        for interior in combinations(minus, size):
            chain = (i,) + interior + (j,)
            prod = 1
            for u, v in zip(chain, chain[1:]):
                prod *= beta[u - 1][v - 1]
            total += prod if size % 2 == 0 else -prod
    return total


def big_c(bott: BottData, a: Sequence[int], i: int, eps: Sequence[int]) -> int:
    """Corner sum C_i^eps = a_i + sum over j > i with eps_j = +1 of alpha_ij^eps a_j.

    Depends only on the suffix eps_{i+1}, ..., eps_N of the sign vector.
    """
    _check_position(bott, i)
    coeffs = _check_coeffs(bott, a)
    e = _check_signs(bott, eps)
    total = coeffs[i - 1]
    minus: Tuple[int, ...] = ()
    for j in range(i + 1, bott.length + 1):
        if e[j - 1] == 1:
            total += _alpha(bott, i, j, minus) * coeffs[j - 1]
        else:
            minus += (j,)
    return total


def x_vector(bott: BottData, a: Sequence[int], eps: Sequence[int]) -> Weight:
    """Corner weight x^eps by downward recursion.

    x_i = -a_i when eps_i = +1, else x_i = -sum_{j>i} beta_ij x_j.
    """
    coeffs = _check_coeffs(bott, a)
    e = _check_signs(bott, eps)
    N = bott.length
    beta = bott.beta
    x = [0] * N
    for i in range(N, 0, -1):
        if e[i - 1] == 1:
            x[i - 1] = -coeffs[i - 1]
        else:
            x[i - 1] = -sum(beta[i - 1][j] * x[j] for j in range(i, N))
    return tuple(x)


def x_vector_path(bott: BottData, a: Sequence[int], eps: Sequence[int]) -> Weight:
    """Corner weight x^eps in closed form, as chain sums into + positions.

    For eps_i = +1 the coordinate is -a_i. Otherwise it is the sum over
    h > i with eps_h = +1 of a_h times the signed chain sum over chains
    i = i_0 < ... < i_k = h all of whose vertices before the endpoint carry
    eps = -1. Independent route to the same vector as x_vector.
    """
    coeffs = _check_coeffs(bott, a)
    e = _check_signs(bott, eps)
    N = bott.length
    beta = bott.beta
    minus = [k for k in range(1, N + 1) if e[k - 1] == -1]
    return tuple(
        -coeffs[i - 1] if e[i - 1] == 1 else sum(
            coeffs[h - 1] * _chain_sum(beta, i, h, [k for k in minus if i < k < h])
            for h in range(i + 1, N + 1)
            if e[h - 1] == 1
        )
        for i in range(1, N + 1)
    )


def phi(bott: BottData, divisor: "ToricDivisor", m: Sequence[int], ray: Ray) -> int:
    """Value on a ray of the divisor's support function shifted by weight m.

    phi_m(e_i^+) = m_i + a_i and
    phi_m(e_i^-) = <m, e_i^-> + b_i = -m_i - sum_{j>i} beta_ij m_j + b_i.

    The weight m contributes to cohomology only through the signs of these
    2N numbers.
    """
    _check_divisor(bott, divisor)
    w = _check_coeffs(bott, m, "weight")
    i, s = ray
    if s not in (1, -1):
        raise IndexOutOfRange("ray sign", s, "+1 or -1")
    coeff = divisor.a if s == 1 else divisor.b
    return sum(map(mul, w, bott.ray(ray))) + coeff[i - 1]


def _weight_masks(bott: BottData, divisor: "ToricDivisor", m: Sequence[int]) -> Tuple[int, int]:
    """_sign_masks of a weight, after checking the divisor and the weight
    against the tower: the one entry of every per-weight public route."""
    _check_divisor(bott, divisor)
    return _sign_masks(bott, divisor, _check_coeffs(bott, m, "weight"))


def _sign_masks(bott: BottData, divisor: "ToricDivisor", w: Weight) -> Tuple[int, int]:
    """Bitmasks (bad_plus, bad_minus) of the indices whose upper / lower ray
    has phi_m < 0, bit i - 1 for index i, for a checked weight.

    phi_m(e_i^+) = m_i + a_i, and phi_m(e_i^-) pairs m with the stored ray
    vector e_i^- and adds b_i.
    """
    bad_plus = bad_minus = 0
    bit = 1
    for m_i, a_i, b_i, ray in zip(w, divisor.a, divisor.b, bott.rays_minus):
        if m_i + a_i < 0:
            bad_plus |= bit
        if sum(map(mul, w, ray)) + b_i < 0:
            bad_minus |= bit
        bit <<= 1
    return bad_plus, bad_minus


def _line_masks(
    bott: BottData, divisor: "ToricDivisor", lo: Sequence[int], hi: Sequence[int]
) -> Iterator[Tuple[Weight, List[Tuple[int, int]]]]:
    """The _sign_masks of every weight of the box lo <= m <= hi, one line
    at a time: a line is the weights that share m_1, ..., m_{N-1}.

    Lines come in lexicographic order, each as its prefix (m_1, ...,
    m_{N-1}) and the (bad_plus, bad_minus) of its weights for m_N = lo_N,
    ..., hi_N. Per line the prefix's upper-ray bits and p_i, the pairing
    of the prefix with the stored ray vector e_i^- plus b_i, are computed
    once. Per weight each lower ray is still evaluated on its own, as
    p_i + e_i^-[N] m_N < 0, and the upper ray of index N as m_N + a_N < 0.
    No partial sums or thresholds are shared, so the enumerator stays
    independent of the sign-pattern sweep. Trusts its arguments: a checked
    divisor and bounds of the tower's length with lo <= hi.
    """
    n = bott.length
    a, b, rays = divisor.a, divisor.b, bott.rays_minus
    bits = [1 << i for i in range(n)]
    last_bit, last_a = bits[-1], a[-1]
    lower = list(zip(rays, b, [ray[-1] for ray in rays], bits))
    line = range(lo[-1], hi[-1] + 1)
    for prefix in product(*(range(l, h + 1) for l, h in zip(lo[:-1], hi[:-1]))):
        plus = 0
        for m_i, a_i, bit in zip(prefix, a, bits):
            if m_i + a_i < 0:
                plus |= bit
        terms = [(sum(map(mul, prefix, ray)) + b_i, c, bit) for ray, b_i, c, bit in lower]
        masks = []
        for m in line:
            minus = 0
            for p, c, bit in terms:
                if p + c * m < 0:
                    minus |= bit
            masks.append((plus | last_bit if m + last_a < 0 else plus, minus))
        yield prefix, masks


def _sign_pattern_counts(
    bott: BottData, divisor: "ToricDivisor", lo: Sequence[int], hi: Sequence[int]
) -> Counter:
    """How many weights of the box lo <= m <= hi have each sign pattern,
    as a Counter of the (bad_plus, bad_minus) pairs of _sign_masks.

    phi_m(e_i^+) < 0 exactly when m_i < -a_i, and phi_m(e_i^-) < 0 exactly
    when m_i >= S_i + 1, where S_i = b_i - sum_{j>i} beta_ij m_j depends on
    the later coordinates only. So once m_N, ..., m_{i+1} are fixed, the
    two thresholds split [lo_i, hi_i] into at most three runs on which the
    index-i bits do not change. The sweep fixes m_N down to m_2 value by
    value, carrying the partial sums sum_{j>i} beta_kj m_j for every
    k <= i, and at index 1 adds each run's length without enumerating it.
    It keeps an explicit stack, so any N works. Trusts its arguments:
    a checked divisor and bounds of the tower's length with lo <= hi.
    """
    n = bott.length
    a, b, beta = divisor.a, divisor.b, bott.beta
    counts: Counter = Counter()
    stack = [(n - 1, (0,) * n, 0, 0)]
    while stack:
        i, sums, bad_plus, bad_minus = stack.pop()
        bit = 1 << i
        cut_plus = -a[i]  # m_i below it: the upper ray is negative
        cut_minus = b[i] - sums[i] + 1  # m_i from it on: the lower ray is negative
        start, stop = lo[i], hi[i] + 1
        cuts = sorted({start, stop, min(max(cut_plus, start), stop),
                       min(max(cut_minus, start), stop)})
        column = [beta[k][i] for k in range(i)]
        for run_start, run_stop in zip(cuts, cuts[1:]):
            plus = bad_plus | bit if run_start < cut_plus else bad_plus
            minus = bad_minus | bit if run_start >= cut_minus else bad_minus
            if i == 0:
                counts[plus, minus] += run_stop - run_start
                continue
            for m in range(run_start, run_stop):
                stack.append((i - 1, tuple(s + c * m for s, c in zip(sums, column)),
                               plus, minus))
    return counts


def maximal_cone_rows(bott: BottData, eps: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    """Ray vectors e_i^{eps_i} of one maximal cone, as matrix rows."""
    e = _check_signs(bott, eps)
    return tuple(bott.ray((i, e[i - 1])) for i in range(1, bott.length + 1))
