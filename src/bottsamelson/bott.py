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
from itertools import combinations
from operator import mul
from typing import TYPE_CHECKING, Sequence, Tuple

from .errors import IndexOutOfRange, NotStrictlyIncreasing
from .rootsystem import GeneralizedCartanMatrix, pairing, reflect, simple_root

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


def build_bott_data(gcm: GeneralizedCartanMatrix, word) -> BottData:
    """Assemble the fan data of the Bott tower for a word.

    word may be a Word or any sequence of 1-based letters; letters must not
    exceed the rank of the Cartan matrix.
    """
    w = word if isinstance(word, Word) else Word(tuple(word))
    for pos, l in enumerate(w.letters, start=1):
        if l > gcm.n:
            raise IndexOutOfRange(f"word letter at position {pos}", l, f"1..{gcm.n}")
    N = len(w)
    letters = w.letters

    beta = tuple(
        tuple(gcm.entry(letters[i], letters[j]) for j in range(N)) for i in range(N)
    )
    rays_plus = tuple(
        tuple(1 if j == i else 0 for j in range(N)) for i in range(N)
    )
    rays_minus = []
    for i in range(N):
        v = [0] * N
        v[i] = -1
        for j in range(i + 1, N):
            v[j] = -beta[i][j]
        rays_minus.append(tuple(v))
    return BottData(
        gcm=gcm,
        word=w,
        beta=beta,
        rays_plus=rays_plus,
        rays_minus=tuple(rays_minus),
    )


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

    Trusts its arguments: 1 <= i < j <= N and minus inside (i, j).
    """
    letters = bott.word.letters
    gamma = simple_root(bott.gcm, letters[j - 1])
    for k in reversed(minus):  # the factor with largest k acts first
        gamma = reflect(bott.gcm, letters[k - 1], gamma)
    return pairing(bott.gcm, letters[i - 1], gamma)


def alpha_reflect(bott: BottData, i: int, j: int, eps: Sequence[int]) -> int:
    """alpha_ij^eps computed by composing simple reflections.

    Applies s_{beta_k} for every k strictly between i and j with eps_k = -1,
    largest k first, to the root beta_j, then pairs with beta_i^vee. Only
    the entries of eps strictly between i and j are read.
    """
    _check_position(bott, i)
    _check_position(bott, j)
    if i >= j:
        raise NotStrictlyIncreasing(i, j)
    e = _check_signs(bott, eps)
    minus = tuple(k for k in range(i + 1, j) if e[k - 1] == -1)
    return _alpha(bott, i, j, minus)


def alpha_path(bott: BottData, i: int, j: int, eps: Sequence[int]) -> int:
    """alpha_ij^eps computed as a signed sum over increasing chains.

    Sums (-1)^(k+1) beta_{i_0 i_1} ... beta_{i_{k-1} i_k} over all chains
    i = i_0 < i_1 < ... < i_k = j whose interior vertices all carry eps = -1.
    Independent route to the same number as alpha_reflect.
    """
    _check_position(bott, i)
    _check_position(bott, j)
    if i >= j:
        raise NotStrictlyIncreasing(i, j)
    e = _check_signs(bott, eps)
    beta = bott.beta
    minus = [k for k in range(i + 1, j) if e[k - 1] == -1]
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
    x = []
    for i in range(1, N + 1):
        if e[i - 1] == 1:
            x.append(-coeffs[i - 1])
            continue
        total = 0
        for h in range(i + 1, N + 1):
            if e[h - 1] != 1:
                continue
            minus = [k for k in range(i + 1, h) if e[k - 1] == -1]
            for size in range(len(minus) + 1):
                for interior in combinations(minus, size):
                    chain = (i,) + interior + (h,)
                    prod = coeffs[h - 1]
                    for u, v in zip(chain, chain[1:]):
                        prod *= beta[u - 1][v - 1]
                    total += prod if size % 2 == 0 else -prod
        x.append(total)
    return tuple(x)


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
