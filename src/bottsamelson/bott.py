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

from _thread import allocate_lock
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product
from operator import mul
from typing import TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import IndexOutOfRange, NotADivisor, NotAnInteger, NotStrictlyIncreasing, _int, _ints
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
        letters = _ints(self.letters, "word")
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
        i = _check_position(self, i)
        return self.rays_plus[i - 1] if s > 0 else self.rays_minus[i - 1]

    @cached_property
    def plan(self) -> "_Plan":
        """The coroot directions of the word (_direction_plan), built on
        first use and kept with the tower, copies and pickles included;
        not a field, so equality, hash and repr do not see it."""
        return _direction_plan(self)


def build_bott_data(gcm: GeneralizedCartanMatrix, word) -> BottData:
    """Assemble the fan data of the Bott tower for a word.

    word may be a Word or any sequence of 1-based letters; letters must not
    exceed the rank of the Cartan matrix.
    """
    w = word if isinstance(word, Word) else Word(word)
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
    (vanishing._sweep_bounds) reads.

    Direction f is a coroot functional lambda -> <gamma, lambda>, stored as
    its values f_k = <gamma, alpha_k> on the simple roots of the word's
    letters (every vector the sweep pairs lies in their span), and
    numbered in the order the tower finds it. D_i, the directions found by
    step i, is the first |D_i| of them. Per 0-based position p: size[p] =
    |D_{p+1}|, and top[p] and bottom[p] are the numbers of A[l_{p+1}] =
    beta_{p+1}^vee and -A[l_{p+1}], whose support values in the condition
    sweep are the max and -min of <beta_{p+1}^vee, lambda>. Per letter l,
    for direction d: coef[l][d] = f_l, the value at alpha_l, and turn[l][d]
    is the number of s_l f = f - f_l A[l]. A step i of letter l fills both
    over D_{i-1}, so they hold every direction that the sweep reaches
    before step i. The plan is plain lists in the tower's own numbering,
    written only while it is built, so it pickles and copies with its
    tower.
    """

    size: List[int]
    top: List[int]
    bottom: List[int]
    coef: Dict[int, List[int]]
    turn: Dict[int, List[int]]


# The one bound of the shared direction tables, for the whole cache, so
# that a long-lived process holds a fixed amount however many matrices and
# words it meets. It is counted in units of about 25 bytes: a table weighs
# 96 units for its own dicts, 9 per direction (its tuple, its entry in the
# number dict and its reflection slots), and per stored alpha step the
# members of its reach and of the reach it steps to, plus 8 for its own
# two sets and tuple; only reaches of at most _MEMO_REACH members are
# stored. When a pass leaves the cache past _BUDGET, the least recently
# used tables leave it whole, memo included, until the rest fit.
_BUDGET = 98304
_MEMO_REACH = 32

_tables: Dict[Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]], "_Directions"] = {}
# the units of the cached tables
_held = 0
# held by every pass over the cache or a table (_table)
_lock = allocate_lock()


class _Directions:
    """The coroot directions of one Cartan matrix over one set of letters,
    shared by every tower over them (_table). key is the letters in
    increasing order and rows[l], row l of the matrix on those letters'
    columns, for each: the directions depend on nothing else.

    Direction g is the tuple vectors[g], in the coordinates of _Plan: its
    values on the simple roots of the letters, in increasing letter order,
    so f_l is vectors[g][column[l]], and number[f] is g. Per letter l,
    turn[l][g] is the number of s_l f, or -1 while no pass has reflected
    it (reflect); a direction that l fixes has turn g from the start.
    ends[l] holds the numbers of A[l] and -A[l], and start[l] the reach
    {A[l]} that the alpha summary begins with at a position of letter l.

    memo[l] maps a reach (a frozenset of direction numbers) to one alpha
    summary step: the min and max of f_l over the reach, and the reach
    joined with its image under s_l (step). Each stored reach is a key of
    its own, so a warm summary costs one dict lookup per pair. units is
    the table's weight in the cache's budget, in the units set out at
    _BUDGET.

    A table is only reached through _table, which holds the module's _lock
    for the whole pass, so towers built and summarised in several threads
    share a table safely. The condition sweep reads only the plan's own
    lists.
    """

    __slots__ = ("key", "rows", "column", "vectors", "number", "turn", "ends", "start",
                 "memo", "units")

    def __init__(self, key: Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]):
        keys, rows = key
        self.key = key
        self.rows = dict(zip(keys, rows))
        self.vectors: List[Tuple[int, ...]] = []
        self.number: Dict[Tuple[int, ...], int] = {}
        self.column = {l: k for k, l in enumerate(keys)}
        self.turn: Dict[int, List[int]] = {l: [] for l in keys}
        self.memo: Dict[int, dict] = {l: {} for l in keys}
        self.units = 96
        self.ends = {
            l: (self.add(row), self.add(tuple([-x for x in row]))) for l, row in self.rows.items()
        }
        self.start = {l: frozenset((top,)) for l, (top, _) in self.ends.items()}

    def add(self, f: Tuple[int, ...]) -> int:
        """The number of direction f, numbering it next if it is new."""
        g = self.number.setdefault(f, len(self.vectors))
        if g == len(self.vectors):
            self.vectors.append(f)
            self.units += 9
            for turn, c in zip(self.turn.values(), f):
                turn.append(-1 if c else g)
        return g

    def reflect(self, l: int, g: int) -> int:
        """The number of s_l f = f - f_l A[l] for direction g. The first
        pass that asks numbers it and records both turns, since s_l is an
        involution; later ones read turn[l]."""
        turn = self.turn[l]
        t = turn[g]
        if t < 0:
            f = self.vectors[g]
            c = f[self.column[l]]
            t = turn[g] = self.add(tuple([x - c * y for x, y in zip(f, self.rows[l])]))
            turn[t] = g
        return t

    def step(self, l: int, reach: frozenset) -> Tuple[int, int, frozenset]:
        """One alpha summary step of letter l from a reach that memo[l]
        lacks, read off the reach's members (reflecting those that no pass
        has reflected by l yet) and stored in memo[l] if the reach is
        small."""
        vectors, at, turn = self.vectors, self.column[l], self.turn[l]
        values = [vectors[g][at] for g in reach]
        images = list(map(turn.__getitem__, reach))
        if -1 in images:
            images = [t if t >= 0 else self.reflect(l, g) for g, t in zip(reach, images)]
        grown = frozenset(chain(reach, images))
        out = (min(values), max(values), reach if len(grown) == len(reach) else grown)
        if len(reach) <= _MEMO_REACH:
            self.memo[l][reach] = out
            self.units += len(reach) + len(grown) + 8
        return out


@contextmanager
def _table(bott: BottData) -> Iterator[_Directions]:
    """The shared direction table of the tower's matrix and letters, for
    one pass: the only way into the cache. It holds _lock for the pass,
    makes the table (fresh if none is cached) the most recently used, and
    when the pass ends adds the table's growth to _held, then evicts the
    least recently used tables, the one just used last of all, until
    _held is within _BUDGET. A pass cut short by an exception (a
    deadline, say) takes its table out of the cache instead, since the
    table may hold a number without its direction."""
    global _held
    entries = bott.gcm.entries
    keys = tuple(sorted(set(bott.word.letters)))
    key = (keys, tuple([tuple([entries[l - 1][k - 1] for k in keys]) for l in keys]))
    with _lock:
        table = _tables.pop(key, None)
        held = 0 if table is None else table.units
        if table is None:
            table = _Directions(key)
        _tables[key] = table
        try:
            yield table
        except BaseException:
            del _tables[key]
            _held -= held
            raise
        _held += table.units - held
        while _held > _BUDGET:
            _held -= _tables.pop(next(iter(_tables))).units


def _direction_plan(bott: BottData) -> _Plan:
    """Number the coroot directions the word reaches, in one pass over its
    letters: step i of letter l appends f_l of every direction found since
    the previous step of l (so coef and turn of l are filled over D_{i-1}),
    numbering each new s_l f as it is found, then numbers A[l] and -A[l].
    turn[l] is never read past D_{i-1}, so later steps only reflect what was
    found since its previous step. Read it through BottData.plan, which
    builds it once per tower.

    The pass runs on the shared table of the tower's matrix and letters
    (_table): ids[d] is the table number of the tower's direction d, and
    local[g] the tower's number of table direction g, or -1 until the
    tower finds it. A reflection the table holds is a list read; only one
    that no pass has made yet goes through _Directions.reflect. A tower's
    number for a direction it finds is len(ids); where that equals the
    table's number (as in a tower that fills a fresh table), the plan
    stores the table's int object instead of a second, equal one, which
    keeps about 0.4 MB off the peak RSS at N = 40.
    """
    letters = bott.word.letters
    with _table(bott) as table:
        keys = table.key[0]
        vectors, ids = table.vectors, []
        plan = _Plan([], [], [], {l: [] for l in keys}, {l: [] for l in keys})
        local = [-1] * len(vectors)
        for l in letters:
            coef, turn = plan.coef[l], plan.turn[l]
            at, table_turn = table.column[l], table.turn[l]
            for j in range(len(coef), len(ids)):
                g = ids[j]
                c = vectors[g][at]
                coef.append(c)
                if c:  # else s_l f = f, number j
                    t = table_turn[g]
                    if t < 0:
                        t = table.reflect(l, g)
                        if t == len(local):
                            local.append(-1)
                    j = local[t]
                    if j < 0:
                        j = len(ids)
                        j = local[t] = t if j == t else j  # t's int object
                        ids.append(t)
                turn.append(j)
            for g, ends in zip(table.ends[l], (plan.top, plan.bottom)):
                j = local[g]
                if j < 0:
                    j = len(ids)
                    j = local[g] = g if j == g else j  # g's int object
                    ids.append(g)
                ends.append(j)
            plan.size.append(len(ids))
    return plan


def signs(pattern: str) -> SignVector:
    """Parse a sign string like '+-+' into a tuple of +1/-1."""
    if not hasattr(pattern, "__iter__"):
        raise NotAnInteger(f"sign pattern must be a string of '+' and '-', got {pattern!r}")
    table = {"+": 1, "-": -1}
    for pos, ch in enumerate(pattern, start=1):
        if ch not in table:
            raise IndexOutOfRange(f"sign character at position {pos}", repr(ch), "'+' or '-'")
    return tuple(table[ch] for ch in pattern)


def all_sign_vectors(N: int) -> Tuple[SignVector, ...]:
    """All 2^N sign vectors in a fixed deterministic order (+ before -)."""
    out = [()]
    for _ in range(_int(N, "sign vector length")):
        out = [v + (s,) for v in out for s in (1, -1)]
    return tuple(out)


def _check_position(bott: BottData, i: int) -> int:
    if not 1 <= (i := _int(i, "position")) <= bott.length:
        raise IndexOutOfRange("position", i, f"1..{bott.length}")
    return i


def _check_signs(bott: BottData, eps: Sequence[int]) -> SignVector:
    e = _ints(eps, "sign", bott.length)
    for pos, s in enumerate(e, start=1):
        if s not in (1, -1):
            raise IndexOutOfRange(f"sign at position {pos}", s, "+1 or -1")
    return e


def _check_coeffs(bott: BottData, a: Sequence[int], what: str = "coefficient") -> Tuple[int, ...]:
    return _ints(a, what, bott.length)


def _check_divisor(bott: BottData, divisor: "ToricDivisor") -> None:
    try:
        length = len(divisor.a)
    except (AttributeError, TypeError):
        raise NotADivisor(divisor) from None
    if length != bott.length:
        raise IndexOutOfRange("divisor of length", length, bott.length)


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
    i, j = _check_position(bott, i), _check_position(bott, j)
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
    i = _check_position(bott, i)
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
    if _int(s, "ray sign") not in (1, -1):
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
