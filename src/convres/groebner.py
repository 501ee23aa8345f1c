"""Module Groebner engine over S and T.

Submodules of a free module R^p are handled through a degree-compatible
term-over-position order: a term is a monomial sitting in one coordinate
of R^p, terms are compared by twisted weight first, then by grevlex on
the monomial, then by position (lower position wins).  Every routine
works on packed columns (below): normal forms (``_reduce_flat``),
Buchberger completion (``_buchberger``), reduced (canonical) bases
(``_interreduce``), syzygies via Schreyer's construction in the
caller's coordinates (``_syzygies_flat``, ``_schreyer``), minimal
homogeneous generating sets of graded submodules together with their
syzygies (``_minimal_level``), and Hilbert series numerators of
lead-term modules, by a pivot algorithm on monomial ideals
(``_lead_numerator``).  ``_to_flat`` and ``_from_flat`` pack and
unpack ``Poly`` columns; callers unpack only what a report prints.

One resumable Buchberger completion (``_Completion``, normal strategy)
serves every caller and skips pairs by the Gebauer-Moeller chain
criteria: reduced bases, Hilbert series and syzygies.  Syzygy runs are
tracked: each reduction is applied to an expression in the inputs as
well, so every item carries its expression and every pair that reduces
to zero leaves a syzygy of the inputs, which Schreyer's construction
takes as they are, reducing no S-pair again.  A level of a minimal
resolution is one such run, stopped at each degree to choose the
minimal generators of that degree before it goes on (after La Scala
and Stillman, JSC 26, 1998).  There are no signature-based or
Hilbert-driven shortcuts.

Terms are packed into single integers whose natural order is the module
order, after Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors" (CASC 2007): the leading
term of a dict of terms is its ``max``, multiplying by a monomial is one
integer addition, and a divisibility test is one subtraction and one
mask.  ``complexes`` lifts the code's reduced basis into T term by term
as integers (``_lift_flat``) for its resolution chain, and reads
Hilbert series off the lead terms of the Groebner basis the chain's one
run per level completes.  The checks of a given complex, on G or on its
leading part, and ``observability`` run the same cores on columns
packed over S.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .algebra import ModElem, Poly, Ring, check_twist
from .errors import DomainError, InvariantError

# Internally a module element is a flat dict {packed term: coeff}, with
# coefficients in [1, p).  A packed term is an int of base-2^32 digits,
# most significant first: the weight deg + twist[pos], over T next
# _C - e0 (the D0 exponent), the degree, then _C - e for every other
# exponent in the order in which ``Ring.mono_key`` compares them, and
# _C - pos last.  Every digit but the weight lies in [0, _C], so integer
# order is digit-by-digit order, which is exactly the module order; a
# digit's top bit (its guard bit) stays clear.  With the D0 digit above
# the degree, D0 is the last variable among terms of one weight even at
# positions of unequal twist, so a homogeneous element has a lead
# divisible by D0 only when the element itself is divisible by D0.
# Multiplying by a monomial adds its packed shift (see
# ``ModuleOrder.shift``), which never carries while digits stay in range.
# Terms are accepted up to weight _LIMIT, half the digit range, so the
# product of an accepted term and an accepted shift never leaves it;
# results are held to _LIMIT again before they are multiplied further.
_BITS = 32
_MASK = (1 << _BITS) - 1
_C = (1 << (_BITS - 1)) - 1
_LIMIT = (1 << (_BITS - 2)) - 1


def _check_weight(weight: int):
    if weight > _LIMIT:
        raise DomainError(f"term weight {weight} exceeds the supported {_LIMIT}")


@dataclass(frozen=True)
class ModuleOrder:
    """Degree-compatible term-over-position order on R^p with a twist.

    The weight of a monomial m at position i is deg(m) + twist[i];
    comparison is weight, then grevlex on m, then smaller position.  Over
    T a smaller D0 exponent wins right after the weight, before the
    degree, so among terms of one weight D0 is the last variable of a
    reverse lexicographic order at every position (Bayer and Stillman,
    Invent. Math. 87, 1987).  Then the D0-free leads of a Groebner basis
    of a graded submodule M of T^p generate the lead-term module of M at
    D0 = 0 (Eisenbud, Commutative Algebra, Prop. 15.12).  ``pack`` maps a
    term to an int with the same order.
    """

    ring: Ring
    twist: tuple[int, ...]

    def __post_init__(self):
        check_twist(self.twist, len(self.twist))
        nv = self.ring.nvars
        # Bit offset of each exponent slot's digit: mono_key compares the
        # last slot first.  Over T the slot of D0 sits above the degree.
        if self.ring.homog:
            at = (_BITS * (nv + 1),) + tuple(_BITS * s for s in range(1, nv))
        else:
            at = tuple(_BITS * (s + 1) for s in range(nv))
        setattr_ = object.__setattr__
        setattr_(self, "_at", at)
        setattr_(self, "_deg_at", _BITS * (nv + 1 - self.ring.homog))
        setattr_(self, "_weight_at", _BITS * (nv + 2))
        setattr_(self, "_base", sum(_C << a for a in at) + _C)
        setattr_(self, "_tail", sum(_MASK << a for a in at))
        setattr_(self, "_guard", sum(1 << (a + _BITS - 1) for a in at))

    @property
    def rank(self) -> int:
        return len(self.twist)

    def pack(self, term) -> int:
        """The term (position, exponents) as an int in the module order."""
        pos, exps = term
        deg = sum(exps)
        weight = deg + self.twist[pos]
        _check_weight(weight)
        if min(exps) < 0:
            raise DomainError(f"negative exponent in {exps}")
        return ((weight << self._weight_at) + (deg << self._deg_at) + self._base - pos
                - sum(e << a for e, a in zip(exps, self._at)))

    def unpack(self, packed: int):
        """Inverse of ``pack``: the term (position, exponents)."""
        return (_C - (packed & _MASK),
                tuple(_C - ((packed >> a) & _MASK) for a in self._at))

    def shift(self, exps) -> int:
        """The int s with pack(t) + s == pack(t times D^exps) for every t."""
        deg = sum(exps)
        return ((deg << self._weight_at) + (deg << self._deg_at)
                - sum(e << a for e, a in zip(exps, self._at)))

    def divides(self, lead: int, packed: int) -> bool:
        """Whether the packed term ``lead`` divides the packed term ``packed``."""
        return ((lead & _MASK) == (packed & _MASK)
                and not ((lead & self._tail) - (packed & self._tail)) & self._guard)


# -- flat representation helpers ----------------------------------------

def _to_flat(vec: ModElem, order: ModuleOrder) -> dict:
    pack = order.pack
    return {pack((i, e)): c for i, poly in enumerate(vec) for e, c in poly.terms}


def _from_flat(order: ModuleOrder, flat: dict, ring: Ring = None) -> ModElem:
    """``flat`` as ``Poly`` over ``order.ring``, or over S at D0 = 1.

    Within one position, descending packed order is descending grevlex,
    which is the canonical order of Poly terms.  Given ``ring`` S, a
    homogeneous element packed over T is unpacked with its D0 exponents
    dropped: within one position they are fixed by the others, so terms
    stay distinct.
    """
    ring = ring or order.ring
    cut = order.ring.nvars - ring.nvars
    per_pos = [[] for _ in range(order.rank)]
    unpack = order.unpack
    for t in sorted(flat, reverse=True):
        pos, e = unpack(t)
        per_pos[pos].append((e[cut:], flat[t]))
    return tuple(Poly(ring, tuple(terms)) for terms in per_pos)


def _flat_degree(flat: dict, order: ModuleOrder) -> int:
    """The weight digit (deg + twist[pos]) all terms share, or DomainError."""
    weights = {t >> order._weight_at for t in flat}
    if len(weights) != 1:
        raise DomainError("element is not homogeneous for the given twist")
    return weights.pop()


def _lift_flat(flat: dict, order: ModuleOrder, lift: ModuleOrder) -> dict:
    """A nonzero element packed by ``order`` over S, homogenized into T.

    ``lift`` is the order over T with the same twist.  With W the
    element's weight (that of its lead, the largest), a term of weight w
    picks up D0^(W - w), so the lift is homogeneous of weight W.  Below
    the weight digit the two layouts agree but for the D0 digit, which T
    keeps where S keeps the weight.  So a packed term t of weight
    w = t >> w_at lifts to t with weight digit W on top, _C - (W - w) in
    place of w, and its degree digit raised by W - w.
    """
    w_at, deg_at = order._weight_at, order._deg_at
    top = max(flat) >> w_at
    shift = (top << lift._weight_at) + ((_C - top) << w_at) + (top << deg_at)
    return {t - ((t >> w_at) << deg_at) + shift: c for t, c in flat.items()}


def _addmul(target: dict, src: dict, coeff: int, shift: int, p: int):
    """target += coeff * D^shift * src, in place; ``shift`` is packed."""
    coeff %= p
    if not coeff:
        return
    get = target.get
    for t, c in src.items():
        t += shift
        v = (get(t, 0) + coeff * c) % p
        if v:
            target[t] = v
        else:           # coeff and c are units, so t was present
            del target[t]


class _GBItem:
    __slots__ = ("flat", "lead", "pos", "exps", "expr")

    def __init__(self, flat, lead, order, expr=None):
        self.flat = flat      # monic: coefficient of lead is 1
        self.lead = lead      # packed leading term
        self.pos, self.exps = order.unpack(lead)
        self.expr = expr      # flat dict over input indices, or None


def _reduce_flat(f: dict, items, order: ModuleOrder, expr: dict = None) -> dict:
    """Full normal form of ``f`` against monic ``items``.

    Each step divides the leading term by the first item whose lead
    divides it.  Given the expression ``expr`` of ``f`` in the inputs,
    each step is applied to it too, with the item's own expression, so
    afterwards ``expr`` (changed in place) expresses the remainder.
    """
    p = order.ring.p
    tail, guard = order._tail, order._guard
    # Items by the position digit of their lead, in item order, with the
    # exponent digits of the lead for the guard-bit divisibility test.
    reducers: dict = {}
    for item in items:
        reducers.setdefault(item.lead & _MASK, []).append((item.lead & tail, item))
    work = dict(f)
    rem: dict = {}
    while work:
        t = max(work)
        c = work[t]
        t_tail = t & tail
        for lead_tail, item in reducers.get(t & _MASK, ()):
            if not (lead_tail - t_tail) & guard:
                shift = t - item.lead
                _addmul(work, item.flat, -c, shift, p)
                if expr is not None:
                    _addmul(expr, item.expr, -c, shift, p)
                break
        else:
            rem[t] = c
            del work[t]
    return rem


def _spair_parts(gi: _GBItem, gj: _GBItem, order: ModuleOrder):
    """S-pair of two monic items with leads in the same position.

    Returns (spair, expr): spair = D^ui * gi - D^uj * gj, with D^ui *
    lead gi = lcm(lead gi, lead gj) = D^uj * lead gj, and expr = D^ui *
    gi.expr - D^uj * gj.expr, its expression in the inputs (None when
    the items carry none).  The lcm's weight was held to the limit when
    ``_Completion._update`` queued the pair.
    """
    p = order.ring.p
    lcm = tuple(map(max, gi.exps, gj.exps))
    ui = order.shift(tuple(a - b for a, b in zip(lcm, gi.exps)))
    uj = order.shift(tuple(a - b for a, b in zip(lcm, gj.exps)))
    s: dict = {}
    _addmul(s, gi.flat, 1, ui, p)
    _addmul(s, gj.flat, -1, uj, p)
    if gi.expr is None:
        return s, None
    expr: dict = {}
    _addmul(expr, gi.expr, 1, ui, p)
    _addmul(expr, gj.expr, -1, uj, p)
    return s, expr


def _monic(flat: dict, p: int):
    """Scale to leading coefficient 1; returns (flat, lead, applied inverse)."""
    lead = max(flat)
    inv = pow(flat[lead], p - 2, p)
    if inv != 1:
        flat = {t: (c * inv) % p for t, c in flat.items()}
    return flat, lead, inv


def _exps_divide(a, b) -> bool:
    """Whether the monomial with exponents ``a`` divides the one with ``b``."""
    return all(x <= y for x, y in zip(a, b))


class _Completion:
    """A resumable Buchberger completion (normal strategy).

    Items are only ever appended, each monic.  Each new item applies the
    chain criteria of Gebauer and Moeller, "On an installation of
    Buchberger's algorithm", JSC 6 (1988): B drops a waiting pair whose
    lcm the new lead divides with both new lcms differing from it, M
    drops a new pair whose lcm is a multiple of another new pair's, F
    keeps one new pair per lcm, and items whose lead the new lead divides
    form no further pairs.  The product criterion is left out: coprime
    leads at one position do not make an S-pair of module elements
    reduce to zero.  The surviving pairs wait on a heap keyed by (lcm
    weight, i, j); ``run(weight)`` reduces the waiting pairs up to that
    weight and appends every nonzero remainder, so over homogeneous input
    the items are then a Groebner basis up to that weight, and ``run()``
    completes them.

    A run is tracked when ``add`` is given each input's expression,
    packed by an order over the ring of ``order``: every item then
    carries its expression in the inputs, and ``run`` carries the
    expression of each S-pair through its reduction.  A nonzero
    remainder joins the items with it; a pair (i, j) that reduces to
    zero leaves it, a syzygy of the inputs, in ``syzygies[(j, i)]``.
    """

    def __init__(self, order: ModuleOrder):
        self.order = order
        self.items: list[_GBItem] = []
        self.syzygies: dict = {}   # (j, i) -> expression of a pair reduced to zero
        self._heap: list = []
        self._pairs: dict = {}     # waiting (i, j) -> lcm exponents
        self._active: list = []    # items that still form pairs

    def add(self, flat: dict, expr: dict = None):
        """Append the nonzero ``flat`` (made monic) and queue its pairs."""
        p = self.order.ring.p
        flat, lead, inv = _monic(flat, p)
        if expr is not None and inv != 1:
            expr = {t: (c * inv) % p for t, c in expr.items()}
        self.items.append(_GBItem(flat, lead, self.order, expr))
        self._update(len(self.items) - 1)

    def _update(self, hi: int):
        items = self.items
        h = items[hi]
        he = h.exps

        def lcm(g):
            return tuple(max(a, b) for a, b in zip(g.exps, he))

        for (i, j), lcm_ij in list(self._pairs.items()):       # criterion B
            if (items[i].pos == h.pos and _exps_divide(he, lcm_ij)
                    and lcm(items[i]) != lcm_ij and lcm(items[j]) != lcm_ij):
                del self._pairs[(i, j)]
        fresh = [(k, lcm(items[k])) for k in self._active if items[k].pos == h.pos]
        kept: list = []
        for idx, (k, lcm_k) in enumerate(fresh):                # criteria M and F
            if not any(_exps_divide(other, lcm_k)
                       for _, other in fresh[idx + 1:] + kept):
                kept.append((k, lcm_k))
        for k, lcm_k in kept:
            weight = sum(lcm_k) + self.order.twist[h.pos]
            _check_weight(weight)
            self._pairs[(k, hi)] = lcm_k
            heapq.heappush(self._heap, (weight, k, hi))
        self._active = [k for k in self._active
                        if items[k].pos != h.pos or not _exps_divide(he, items[k].exps)]
        self._active.append(hi)

    def run(self, weight: int = None):
        """Reduce the waiting pairs of lcm weight <= ``weight`` (all if None)."""
        order, items, heap = self.order, self.items, self._heap
        while heap and (weight is None or heap[0][0] <= weight):
            _, i, j = heapq.heappop(heap)
            if self._pairs.pop((i, j), None) is None:
                continue    # dropped by criterion B
            s, expr = _spair_parts(items[i], items[j], order)
            rem = _reduce_flat(s, items, order, expr)
            if rem:
                if expr:    # multiplied further, so held to the limit
                    _check_weight(max(expr) >> order._weight_at)
                self.add(rem, expr)
            elif expr:
                self.syzygies[(j, i)] = expr


def _buchberger(gens_flat, order: ModuleOrder, expr_order: ModuleOrder = None):
    """A completed ``_Completion`` of ``gens_flat``; its items are a
    Groebner basis of their span.

    With ``expr_order`` the run is tracked: input j is given its unit
    e_j of ``expr_order`` as its expression, so the items and the
    syzygies the run leaves are expressed in the caller's coordinates.
    """
    completion = _Completion(order)
    one = (0,) * order.ring.nvars
    for j, flat in enumerate(gens_flat):
        if not flat:
            raise DomainError("zero generator")
        completion.add(dict(flat), None if expr_order is None
                       else {expr_order.pack((j, one)): 1})
    completion.run()
    return completion


def _interreduce(items, order: ModuleOrder):
    """Canonical reduced basis: minimal leads, fully tail-reduced, sorted."""
    keyed = sorted(items, key=lambda it: it.lead)
    kept: list[_GBItem] = []
    for it in keyed:
        if any(order.divides(k.lead, it.lead) for k in kept):
            continue
        kept.append(it)
    # Leads are now pairwise non-divisible; one tail-reduction pass is
    # enough because divisibility only looks at leads, which are fixed.
    p = order.ring.p
    reduced = []
    for idx, it in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        rem, lead, _ = _monic(_reduce_flat(it.flat, others, order), p)
        if lead != it.lead:
            raise InvariantError("tail reduction changed a leading term")
        reduced.append(_GBItem(rem, lead, order))
    reduced.sort(key=lambda it: it.lead, reverse=True)
    return reduced


# -- syzygies ------------------------------------------------------------

def _syzygies_flat(gens_flat, order: ModuleOrder, syz_order: ModuleOrder):
    """Syzygies of the packed columns ``gens_flat`` as packed columns.

    Schreyer's construction: complete the columns to a Groebner basis
    while tracking expressions in the original columns (a tracked
    ``_Completion``); the pairs that reduced to zero leave the syzygies
    (``_schreyer``).  Each column is an item of the run, so these are
    all its syzygies.  ``gens_flat`` are packed by ``order``; the
    syzygies are packed by ``syz_order``, whose twist should be the
    columns' degrees.  Returns them with the items of the completion, a
    Groebner basis of the columns' span.
    """
    completion = _buchberger(gens_flat, order, syz_order)
    return _schreyer(completion), completion.items


def _schreyer(completion: _Completion) -> list:
    """The syzygies of the inputs of a completed tracked run.

    Every input is an item, its expression a multiple of its own unit by
    a nonzero scalar, so the syzygies of the inputs are the images,
    through the items' expressions, of the syzygies of the items.  By
    Schreyer's theorem (Eisenbud, Commutative Algebra, Thm. 15.10) the
    syzygies that the basis's S-pairs give by their reductions to zero
    generate those.  A pair that reduced to zero in the run left the
    image of its syzygy in ``completion.syzygies``; no S-pair is reduced
    again.  A pair a Gebauer-Moeller criterion dropped has its syzygy in
    the span of the kept pairs' (Gebauer and Moeller, JSC 6, 1988;
    Moeller, Mora and Traverso, ISSAC 1992), and a pair that produced
    item h has the syzygy sigma - c e_h, whose image is zero.  The
    syzygies come monic, without repeats, sorted by ascending lead, ties
    by pair (j, i).
    """
    p = completion.order.ring.p
    seen = set()
    cleaned = []
    for _, flat in sorted(completion.syzygies.items()):
        flat, lead, _ = _monic(flat, p)
        key = tuple(sorted(flat.items()))
        if key in seen:
            continue
        seen.add(key)
        cleaned.append((lead, flat))
    cleaned.sort(key=lambda pair: pair[0])
    return [flat for _, flat in cleaned]


# -- minimal homogeneous generators and their syzygies ----------------------

def _minimal_level(gens_flat, order: ModuleOrder):
    """Minimal homogeneous generators of packed columns and their syzygies,
    from one tracked ``_Completion``.

    One pass per degree (graded Nakayama): before degree d the completion
    is run up to weight d, so its items are a Groebner basis of the kept
    span up to degree d.  The columns of degree d (``_flat_degree``) are
    taken in index order and reduced to normal form against the items.
    Normal forms against a Groebner basis are unique, so a column is kept
    exactly when it is not in the span of those kept before it, in
    increasing degree; over a graded module that realizes the (unique)
    minimal number of generators per degree, so the size and the degree
    multiset of the output are invariants of the module.  A kept column
    is its normal form, made monic: it differs from the column by an
    element of the span of those kept before, so the kept columns span
    what the columns span.  It joins the items with its own unit as its
    expression.
    Then ``run()`` completes the items, and the pairs that reduced to
    zero leave their syzygies (``_schreyer``): each kept column is an
    item, as each input of ``_syzygies_flat`` is, so they are all the
    syzygies.

    Returns ``(kept, syz_order, syzygies, items)``: the kept columns, by
    degree then index; the order twisted by their degrees, which packs
    the syzygies and whose unit at position i is the expression of
    kept[i]; and the items, a Groebner basis of the kept span.
    """
    by_degree: dict = {}
    for k, flat in enumerate(gens_flat):
        by_degree.setdefault(_flat_degree(flat, order), []).append(k)
    completion = _Completion(order)
    kept, degrees = [], []
    for d in sorted(by_degree):
        completion.run(d)
        for k in by_degree[d]:
            rem = _reduce_flat(gens_flat[k], completion.items, order)
            if rem:
                rem = _monic(rem, order.ring.p)[0]
                # The unit at position len(kept), of weight d, of ``syz_order``.
                completion.add(rem, {(d << order._weight_at) + order._base - len(kept): 1})
                kept.append(rem)
                degrees.append(d)
    completion.run()
    syz_order = ModuleOrder(order.ring, tuple(degrees))
    return kept, syz_order, _schreyer(completion), completion.items


# -- Hilbert series of lead-term modules ------------------------------------

def _minimal_monomials(monos, deg_at: int, guard: int) -> list:
    """Minimal generators of a monomial ideal given by packed monomials.

    A packed monomial holds its degree in the top digit, so ascending
    int order is ascending degree, and a monomial can only be divided by
    one of lower degree (or by itself, which the set removes).
    """
    kept: list = []
    below: list = []
    deg = None
    for m in sorted(set(monos)):
        if m >> deg_at != deg:
            deg, below = m >> deg_at, list(kept)
        for k in below:
            if not (m - k) & guard:
                break
        else:
            kept.append(m)
    return kept


def monomial_hilbert_numerator(gens, nvars: int) -> dict:
    """K with HS(S/I) = K(t) / (1 - t)^nvars for the monomial ideal I.

    ``gens`` are the exponent tuples of generators of I; the result maps
    powers of t to nonzero coefficients.  Pivot algorithm after Bigatti,
    "Computation of Hilbert-Poincare series", JPAA 119 (1997): the exact
    sequence 0 -> S/(I:m)(-deg m) -> S/I -> S/(I+m) -> 0 gives
    K(I) = K(I + m) + t^deg(m) K(I : m).  The pivot is m = x^e, x the
    variable in most generators and e the lower median of its positive
    exponents, so m is not in I, both ideals are strictly larger, and
    each keeps about half of the generators that contain x.  Generators
    are kept minimal at every step; pairwise coprime generators
    m_1..m_k give K = prod (1 - t^deg m_i).  Work is kept on an explicit
    stack, so deep splits cannot exhaust Python's recursion limit.
    """
    gens = [tuple(e) for e in gens]
    for e in gens:
        if len(e) != nvars or min(e, default=0) < 0:
            raise DomainError(f"{e} is not an exponent vector in {nvars} variables")
    # Digits of ``width`` bits, exponents low and the degree on top; no
    # digit reaches its guard bit, so a | b iff b - a borrows nowhere.
    width = max((sum(e) for e in gens), default=0).bit_length() + 1
    mask = (1 << width) - 1
    offsets = [width * i for i in range(nvars)]
    deg_at = width * nvars
    guard = sum(1 << (width * i + width - 1) for i in range(nvars + 1))
    packed = [(sum(e) << deg_at) + sum(x << o for x, o in zip(e, offsets)) for e in gens]

    out: dict = {}
    stack = [(_minimal_monomials(packed, deg_at, guard), 0)]
    while stack:
        ideal, shift = stack.pop()
        count = [0] * nvars
        seen = 0
        coprime = True
        for m in ideal:
            support = 0
            for i, o in enumerate(offsets):
                if (m >> o) & mask:
                    support |= 1 << i
                    count[i] += 1
            coprime = coprime and not support & seen
            seen |= support
        if coprime:
            term = {shift: 1}
            for m in ideal:
                d = m >> deg_at
                step = dict(term)
                for k, c in term.items():
                    step[k + d] = step.get(k + d, 0) - c
                term = step
            for k, c in term.items():
                out[k] = out.get(k, 0) + c
            continue
        o = offsets[max(range(nvars), key=count.__getitem__)]
        exps = sorted(x for x in ((m >> o) & mask for m in ideal) if x)
        e = exps[(len(exps) - 1) // 2]
        unit = (1 << deg_at) + (1 << o)
        stack.append(([m for m in ideal if (m >> o) & mask < e] + [e * unit], shift))
        colon = [m - min(e, (m >> o) & mask) * unit for m in ideal]
        stack.append((_minimal_monomials(colon, deg_at, guard), shift + e))
    return {k: c for k, c in out.items() if c}


def _lead_numerator(leads, twist, nvars: int) -> dict:
    """N = sum_i t^a_i (1 - K(S/I_i)) for lead terms given as (position, exponents).

    a = ``twist`` and I_i is the monomial ideal of the exponents at
    position i (``monomial_hilbert_numerator``), so N(t) / (1 - t)^nvars
    is the Hilbert series of the monomial submodule the leads generate.
    """
    by_pos: dict = {}
    for pos, exps in leads:
        by_pos.setdefault(pos, []).append(exps)
    out: dict = {}
    for pos, exps in by_pos.items():
        a = twist[pos]
        out[a] = out.get(a, 0) + 1
        for k, c in monomial_hilbert_numerator(exps, nvars).items():
            out[a + k] = out.get(a + k, 0) - c
    return {k: c for k, c in out.items() if c}
