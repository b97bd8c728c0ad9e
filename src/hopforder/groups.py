"""Regular subgroups of Perm(G) normalized by lambda(G), their
isomorphism types, and induced-structure detection.

These subgroups are the Hopf Galois structures on a Galois extension
with group G (Greither-Pareigis).  They are enumerated through Byott's
translation (Byott 1996, "Uniqueness of Hopf Galois structure for
separable field extensions"): for each group N of order |G|, the regular
subgroups of the holomorph Hol(N) = lambda(N) Aut(N) that are isomorphic
to G give, through an isomorphism, the subgroups isomorphic to N.  The
groups N are the standard models, which list every group of order up to
ORDER_CAP.  Automorphisms and isomorphisms come from one backtracker
that extends partial homomorphisms of Cayley tables.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import cached_property


class DegreeTooLargeError(Exception):
    pass


class NoDecompositionError(Exception):
    pass


class GroupValidationError(Exception):
    pass


# _standard_models lists every group of order up to this cap
ORDER_CAP = 15


@dataclass(frozen=True, order=True)
class Permutation:
    images: tuple

    def __post_init__(self):
        imgs = tuple(self.images)
        object.__setattr__(self, "images", imgs)
        if sorted(imgs) != list(range(len(imgs))):
            raise GroupValidationError("images are not a bijection")

    @staticmethod
    def identity(m: int) -> "Permutation":
        return Permutation(tuple(range(m)))

    @staticmethod
    def from_cycles(m: int, cycles) -> "Permutation":
        imgs = list(range(m))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                imgs[a] = b
        return Permutation(tuple(imgs))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # composition: (p * q)(x) = p(q(x))
        return Permutation(tuple(self.images[i] for i in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def is_fixed_point_free(self) -> bool:
        return all(i != j for i, j in enumerate(self.images))

    def cycles(self):
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i]:
                continue
            cyc = []
            j = i
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def order(self) -> int:
        k = 1
        p = self
        while not p.is_identity():
            p = p * self
            k += 1
        return k


@dataclass(frozen=True)
class GroupData:
    """A finite group given by its Cayley table, with an optional
    semidirect decomposition G = J x| G'."""

    order: int
    cayley: tuple  # cayley[a][b] = index of a*b
    element_names: tuple = None
    J: tuple = None
    Gprime: tuple = None

    def __post_init__(self):
        cay = tuple(tuple(r) for r in self.cayley)
        object.__setattr__(self, "cayley", cay)
        if self.element_names is None:
            object.__setattr__(
                self, "element_names", tuple(f"g{i}" for i in range(self.order))
            )
        else:
            object.__setattr__(self, "element_names", tuple(self.element_names))
        if self.J is not None:
            object.__setattr__(self, "J", tuple(sorted(self.J)))
        if self.Gprime is not None:
            object.__setattr__(self, "Gprime", tuple(sorted(self.Gprime)))
        self._validate()

    def _validate(self):
        m = self.order
        cay = self.cayley
        if len(cay) != m or any(len(r) != m for r in cay):
            raise GroupValidationError("Cayley table is not m x m")
        if any(type(x) is not int for r in cay for x in r):
            raise GroupValidationError("Cayley entries must be integer indices")
        for r in cay:
            if sorted(r) != list(range(m)):
                raise GroupValidationError("Cayley rows must be permutations")
        for c in range(m):
            if sorted(cay[r][c] for r in range(m)) != list(range(m)):
                raise GroupValidationError("Cayley columns must be permutations")
        e = next(
            (i for i in range(m) if all(cay[i][j] == j for j in range(m))), None
        )
        if e is None or any(cay[j][e] != j for j in range(m)):
            raise GroupValidationError("no two-sided identity")
        object.__setattr__(self, "identity", e)
        for a in range(m):
            if all(cay[a][b] != e for b in range(m)):
                raise GroupValidationError("missing inverse")
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if cay[cay[a][b]][c] != cay[a][cay[b][c]]:
                        raise GroupValidationError("associativity fails")
        if (self.J is None) != (self.Gprime is None):
            raise GroupValidationError("J and Gprime must come together")
        if self.J is not None:
            self._validate_decomposition()

    def _validate_decomposition(self):
        m, cay, e = self.order, self.cayley, self.identity
        j_set, g_set = set(self.J), set(self.Gprime)
        for name, s in (("J", j_set), ("Gprime", g_set)):
            if not all(0 <= x < m for x in s):
                raise GroupValidationError(f"{name} has an index outside 0..{m - 1}")
            if e not in s:
                raise GroupValidationError(f"{name} misses the identity")
            for a in s:
                for b in s:
                    if cay[a][b] not in s:
                        raise GroupValidationError(f"{name} is not closed")
        if j_set & g_set != {e}:
            raise GroupValidationError("J and Gprime must intersect trivially")
        if len(j_set) * len(g_set) != m:
            raise GroupValidationError("|J| * |Gprime| must equal |G|")
        for g in range(m):
            ginv = self.inverse(g)
            for a in j_set:
                if cay[cay[g][a]][ginv] not in j_set:
                    raise GroupValidationError("J is not normal")

    def inverse(self, a: int) -> int:
        return next(
            b for b in range(self.order) if self.cayley[a][b] == self.identity
        )

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def factorize(self):
        """Unique factorization g = sigma tau with sigma in J, tau in G'."""
        return {
            x: (self.J[i], self.Gprime[k]) for x, (i, k) in enumerate(self.coordinates)
        }

    @cached_property
    def coordinates(self) -> tuple:
        """(i, k) with g = J[i] Gprime[k] for each element g, computed once."""
        if self.J is None:
            raise NoDecompositionError("group carries no decomposition")
        coords = {}
        for i, s in enumerate(self.J):
            for k, t in enumerate(self.Gprime):
                coords[self.mul(s, t)] = (i, k)
        return tuple(coords[x] for x in range(self.order))

    @cached_property
    def translations(self) -> "TranslationActions":
        """translation_actions(self), computed once."""
        return translation_actions(self)


@dataclass(frozen=True)
class TranslationActions:
    lam: tuple  # left translation, indexed by group element
    rho: tuple  # right translation by the inverse
    lambda_c: tuple = None  # G acting on J through cosets
    lambda_prime: tuple = None  # left regular representation of G'


def translation_actions(g: GroupData) -> TranslationActions:
    m = g.order
    lam = tuple(
        Permutation(tuple(g.mul(a, x) for x in range(m))) for a in range(m)
    )
    rho = tuple(
        Permutation(tuple(g.mul(x, g.inverse(a)) for x in range(m)))
        for a in range(m)
    )
    if g.J is None:
        return TranslationActions(lam=lam, rho=rho)
    coords = g.coordinates
    lambda_c = []
    for a in range(m):
        i, k = coords[a]
        sigma, tau = g.J[i], g.Gprime[k]
        tau_inv = g.inverse(tau)
        imgs = [
            coords[g.mul(sigma, g.mul(g.mul(tau, s), tau_inv))][0] for s in g.J
        ]
        lambda_c.append(Permutation(tuple(imgs)))
    lambda_prime = tuple(
        Permutation(tuple(coords[g.mul(t, x)][1] for x in g.Gprime))
        for t in g.Gprime
    )
    return TranslationActions(
        lam=lam, rho=rho, lambda_c=tuple(lambda_c), lambda_prime=lambda_prime
    )


@dataclass(frozen=True)
class RegularSubgroup:
    elements: tuple  # sorted Permutations
    degree: int
    # the name of the standard model it was built from, when known
    type_name: str | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(sorted(self.elements)))

    def validate(self, base_point: int = 0):
        elems = set(self.elements)
        if len(elems) != self.degree:
            raise GroupValidationError("order must equal the degree")
        if Permutation.identity(self.degree) not in elems:
            raise GroupValidationError("missing identity")
        for p in elems:
            if p.inverse() not in elems:
                raise GroupValidationError("not closed under inverse")
            for q in elems:
                if p * q not in elems:
                    raise GroupValidationError("not closed under composition")
        orbit = {p(base_point) for p in elems}
        if len(orbit) != self.degree:
            raise GroupValidationError("not regular")

    def cayley_table(self):
        elems = list(self.elements)
        pos = {p: i for i, p in enumerate(elems)}
        return tuple(
            tuple(pos[a * b] for b in elems) for a in elems
        )


def _semiregular_closure(gens, e):
    """The subgroup generated by gens, as {p(e): p}, or None when two of
    its elements agree at e (it is not semiregular)."""
    sub = {e: Permutation.identity(gens[0].degree)}
    frontier = [sub[e]]
    while frontier:
        p = frontier.pop()
        for s in gens:
            q = s * p
            old = sub.get(q(e))
            if old is None:
                sub[q(e)] = q
                frontier.append(q)
            elif old != q:
                return None
    return sub


def _holomorph_regular_subgroups(lam, auts, e):
    """Regular subgroups M of Hol(N) = lambda(N) Aut(N), one per
    Aut(N)-conjugacy class, each as {m(e): m}.

    Backtracking: the next generator is some lambda(x) alpha for the
    least point x not yet covered, and each generated subgroup is
    explored once."""
    n = len(lam)
    found, seen = [], set()
    stack = [([], {e: Permutation.identity(n)})]
    while stack:
        gens, sub = stack.pop()
        if len(sub) == n:
            found.append(sub)
            continue
        x = min(set(range(n)) - sub.keys())
        for c in (lam[x] * a for a in auts):
            closed = _semiregular_closure(gens + [c], e)
            if closed is None:
                continue
            key = frozenset(closed.values())
            if key not in seen:
                seen.add(key)
                stack.append((gens + [c], closed))
    classes, conjugates = [], set()
    for sub in found:
        if frozenset(sub.values()) not in conjugates:
            classes.append(sub)
            conjugates.update(
                frozenset(a * m * a.inverse() for m in sub.values()) for a in auts
            )
    return classes


def enumerate_regular_subgroups(g: GroupData) -> list:
    """All regular subgroups of Perm(G) normalized by lambda(G),
    canonically sorted, through Byott's translation (Byott 1996).

    For each model N of order |G| and each regular subgroup M of Hol(N)
    isomorphic to G (up to Aut(N)-conjugacy), an isomorphism G -> M read
    as the bijection a: G -> N, g -> (image of g)(e_N), carries lambda(N)
    to a^-1 lambda(N) a, which lambda(G) normalizes; its conjugates under
    Aut(G) are the rest of the subgroups M gives, each named N in its
    type_name.  Every result is checked to be regular and normalized by
    lambda(G)."""
    n = g.order
    if n > ORDER_CAP:
        raise DegreeTooLargeError(f"degree {n} exceeds cap {ORDER_CAP}")
    auts_g = [Permutation(t) for t in _isomorphisms(g.cayley, g.cayley)]
    found = {}
    for name, table in _standard_models(n):
        lam = [Permutation(row) for row in table]
        auts = [Permutation(t) for t in _isomorphisms(table, table)]
        for sub in _holomorph_regular_subgroups(lam, auts, _identity(table)):
            # M's Cayley table on the points of N: m_x m_y = m_{m_x(y)}
            a = next(_isomorphisms(g.cayley, [sub[x].images for x in range(n)]), None)
            if a is None:
                continue
            a = Permutation(a)
            transported = [a.inverse() * p * a for p in lam]
            for theta in auts_g:
                key = tuple(sorted(theta * p * theta.inverse() for p in transported))
                found[key] = name
    subs = [RegularSubgroup(key, n, name) for key, name in sorted(found.items())]
    for sub in subs:
        sub.validate()
        elems = set(sub.elements)
        for t in g.translations.lam:
            if any(t * p * t.inverse() not in elems for p in elems):
                raise GroupValidationError("not normalized by lambda(G)")
    return subs


# --- isomorphism classification -----------------------------------------


def _cyclic(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def _direct(c1, c2):
    n1, n2 = len(c1), len(c2)
    idx = lambda a, b: a * n2 + b
    return tuple(
        tuple(
            idx(c1[a1][b1], c2[a2][b2]) for b1 in range(n1) for b2 in range(n2)
        )
        for a1 in range(n1)
        for a2 in range(n2)
    )


def _dihedral(k):
    # order 2k: elements r^i s^a, product r^i s^a r^j s^b = r^(i+(-1)^a j) s^(a+b)
    idx = lambda i, a: 2 * i + a
    table = [[0] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        for a in range(2):
            for j in range(k):
                for b in range(2):
                    ii = (i + (j if a == 0 else -j)) % k
                    table[idx(i, a)][idx(j, b)] = idx(ii, (a + b) % 2)
    return tuple(tuple(r) for r in table)


def _dicyclic(k):
    # order 4k: <a, b | a^(2k) = 1, b^2 = a^k, b a b^-1 = a^-1>
    idx = lambda i, j: 2 * i + j
    table = [[0] * (4 * k) for _ in range(4 * k)]
    for i in range(2 * k):
        for j in range(2):
            for i2 in range(2 * k):
                for j2 in range(2):
                    ii = (i + (i2 if j == 0 else -i2) + (k if j and j2 else 0)) % (2 * k)
                    table[idx(i, j)][idx(i2, j2)] = idx(ii, (j + j2) % 2)
    return tuple(tuple(r) for r in table)


def _alternating4():
    perms = [
        p
        for p in itertools.permutations(range(4))
        if _parity(p) == 0
    ]
    pos = {p: i for i, p in enumerate(perms)}
    comp = lambda p, q: tuple(p[q[i]] for i in range(4))
    return tuple(tuple(pos[comp(p, q)] for q in perms) for p in perms)


def _parity(p):
    inv = sum(
        1
        for i in range(len(p))
        for j in range(i + 1, len(p))
        if p[i] > p[j]
    )
    return inv % 2


def _abelian_models(n):
    """(name, table) for every abelian type of order n, by invariant factors."""
    out = []
    for factors in _invariant_factor_chains(n):
        name = "x".join(f"C{f}" for f in factors) or "C1"
        table = _cyclic(1)
        for f in factors:
            table = _direct(table, _cyclic(f))
        out.append((name, table))
    return out


def _invariant_factor_chains(n):
    """Chains d1 | d2 | ... with product n, largest factor first in name
    order; returned largest-last to match Cn x Cm naming."""
    chains = []

    def rec(rem, prev, acc):
        if rem == 1:
            chains.append(tuple(reversed(acc)))
            return
        d = prev
        while d >= 2:
            if rem % d == 0 and (prev % d == 0 or not acc):
                rec(rem // d, d, acc + [d])
            d -= 1

    rec(n, n, [])
    # dedupe and keep canonical ordering (largest factor first in the chain)
    return sorted(set(chains), key=lambda c: (len(c), c))


def _identity(table):
    n = len(table)
    return next(i for i in range(n) if all(table[i][j] == j for j in range(n)))


def _element_orders(table):
    """Order of each element, indexed by element."""
    n = len(table)
    e = _identity(table)
    orders = []
    for a in range(n):
        k, x = 1, a
        while x != e:
            x = table[x][a]
            k += 1
        orders.append(k)
    return orders


def _isomorphisms(table1, table2):
    """Every isomorphism between two Cayley tables, as a tuple of images,
    by extending a partial homomorphism one generator at a time."""
    n = len(table1)
    if len(table2) != n:
        return
    ord1, ord2 = _element_orders(table1), _element_orders(table2)
    if sorted(ord1) != sorted(ord2):
        return

    stack = [{_identity(table1): _identity(table2)}]
    while stack:
        mapping = stack.pop()
        if len(mapping) == n:
            yield tuple(mapping[a] for a in range(n))
            continue
        g = next(i for i in range(n) if i not in mapping)
        used = set(mapping.values())
        for h in range(n):
            if h in used or ord1[g] != ord2[h]:
                continue
            new_map = dict(mapping)
            new_map[g] = h
            if _close_homomorphism(table1, table2, new_map):
                stack.append(new_map)


def is_isomorphic(table1, table2) -> bool:
    """Backtracking isomorphism test on Cayley tables."""
    return next(_isomorphisms(table1, table2), None) is not None


def _close_homomorphism(table1, table2, mapping):
    """Extend mapping multiplicatively; False on any clash.  Mutates
    mapping in place when consistent."""
    pairs = list(mapping.items())
    while pairs:
        nxt = []
        items = list(mapping.items())
        for a, fa in items:
            for b, fb in items:
                ab = table1[a][b]
                fab = table2[fa][fb]
                if ab in mapping:
                    if mapping[ab] != fab:
                        return False
                else:
                    if fab in mapping.values():
                        return False
                    mapping[ab] = fab
                    nxt.append((ab, fab))
        pairs = nxt
    return True


def _standard_models(n):
    models = list(_abelian_models(n))
    if n == 6:
        models.append(("S3", _dihedral(3)))
    elif n == 8:
        models.append(("D8", _dihedral(4)))
        models.append(("Q8", _dicyclic(2)))
    elif n == 10:
        models.append(("D10", _dihedral(5)))
    elif n == 12:
        models.append(("D12", _dihedral(6)))
        models.append(("Dic3", _dicyclic(3)))
        models.append(("A4", _alternating4()))
    elif n == 14:
        models.append(("D14", _dihedral(7)))
    return models


def classify_type(subgroup: RegularSubgroup) -> str:
    """Standard name of the isomorphism class, for order <= 15."""
    n = len(subgroup.elements)
    if n > ORDER_CAP:
        raise DegreeTooLargeError(f"order {n} exceeds cap {ORDER_CAP}")
    table = subgroup.cayley_table()
    for name, model in _standard_models(n):
        if is_isomorphic(table, model):
            return name
    raise GroupValidationError("group matches no standard model")


def _closure_indices(g: GroupData, gens):
    elems = {g.identity}
    frontier = [g.identity]
    while frontier:
        a = frontier.pop()
        for x in gens:
            for c in (g.mul(a, x), g.mul(x, a)):
                if c not in elems:
                    elems.add(c)
                    frontier.append(c)
    return elems


def subgroups_of_order(g: GroupData, u: int):
    """All subgroups of the given order, as sorted index tuples.

    Brute force over generating subsets of size <= 3, which covers every
    group of order <= 15."""
    if u < 1 or g.order % u:
        return []
    if u == 1:
        return [(g.identity,)]
    found = set()
    for k in (1, 2, 3):
        for gens in itertools.combinations(range(g.order), k):
            s = _closure_indices(g, gens)
            if len(s) == u:
                found.add(tuple(sorted(s)))
    return sorted(found)


def complements_of(g: GroupData):
    """Subgroups G'_d with J . G'_d = G and J intersect G'_d = {e}."""
    if g.J is None:
        raise NoDecompositionError("group carries no decomposition")
    u = g.order // len(g.J)
    j_set = set(g.J)
    return [
        s
        for s in subgroups_of_order(g, u)
        if set(s) & j_set == {g.identity}
    ]


def with_complement(g: GroupData, gprime) -> GroupData:
    """The same group data with another complement of J."""
    return dataclasses.replace(g, Gprime=tuple(gprime))


# --- induced-structure detection ----------------------------------------


def iota(g: GroupData, phi: Permutation, psi: Permutation) -> Permutation:
    """The product permutation of G determined by (phi, psi) on J x G'."""
    return Permutation(
        tuple(g.mul(g.J[phi(i)], g.Gprime[psi(k)]) for i, k in g.coordinates)
    )


def detect_induced(g: GroupData, n_sub: RegularSubgroup):
    """(N1, N2) with N = iota(N1 x N2), or None when N does not factor.

    N1 acts on J positions and must be normalized by lambda_c(G);
    N2 acts on G' positions and must be normalized by lambda'(G').
    """
    if g.J is None:
        raise NoDecompositionError("group carries no decomposition")
    if n_sub.degree != g.order:
        raise GroupValidationError("subgroup degree must equal |G|")
    coords = g.coordinates
    n1, n2 = set(), set()
    for p in n_sub.elements:
        phi = [None] * len(g.J)
        psi = [None] * len(g.Gprime)
        for x, (a, b) in enumerate(coords):
            a2, b2 = coords[p(x)]
            if phi[a] is None:
                phi[a] = a2
            elif phi[a] != a2:
                return None
            if psi[b] is None:
                psi[b] = b2
            elif psi[b] != b2:
                return None
        n1.add(Permutation(tuple(phi)))
        n2.add(Permutation(tuple(psi)))

    if len(n1) * len(n2) != len(n_sub.elements):
        return None
    elems = set(n_sub.elements)
    for phi in n1:
        for psi in n2:
            if iota(g, phi, psi) not in elems:
                return None

    acts = g.translations
    for factor, normalizer in ((n1, acts.lambda_c), (n2, acts.lambda_prime)):
        for p in factor:
            for a in normalizer:
                if a * p * a.inverse() not in factor:
                    return None
    sub1 = RegularSubgroup(elements=tuple(n1), degree=len(g.J))
    sub2 = RegularSubgroup(elements=tuple(n2), degree=len(g.Gprime))
    sub1.validate()
    sub2.validate()
    return sub1, sub2
