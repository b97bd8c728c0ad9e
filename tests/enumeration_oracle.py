"""Reference enumeration of regular subgroups by backtracking in Sym(X).

This is the search `hopforder.groups` used before it went through
Byott's holomorph translation.  It takes any set of normalizer
generators, not only lambda(G), and builds the subgroups element by
element, so it shares no code path with the holomorph route; tests
compare the two on every group of order <= 8.
"""

from hopforder.groups import Permutation, RegularSubgroup


def _semiregular_candidates(degree, target):
    """Fixed-point-free permutations with equal cycle lengths sending 0 to
    `target`, generated cycle by cycle."""
    out = []
    for ell in range(2, degree + 1):
        if degree % ell:
            continue
        _build_semiregular(degree, ell, target, out)
    return out


def _build_semiregular(degree, ell, target, out):
    # place points into cycles of length ell; the cycle through 0 starts 0 -> target
    def extend(cycles, current, remaining):
        if current is not None:
            if len(current) == ell:
                start = current[0]
                if current[1] != target and start == 0:
                    return
                cycles = cycles + [tuple(current)]
                current = None
            else:
                for x in sorted(remaining):
                    if current[0] == 0 and len(current) == 1 and x != target:
                        continue
                    extend(cycles, current + [x], remaining - {x})
                return
        if not remaining:
            imgs = list(range(degree))
            for cyc in cycles:
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    imgs[a] = b
            out.append(Permutation(tuple(imgs)))
            return
        start = min(remaining)
        extend(cycles, [start], remaining - {start})

    extend([], [0], set(range(degree)) - {0})


def _close(partial, new_elem, conj_gens, cap):
    """Close partial u {new} under products, inverses and conjugation.

    Returns the closed set, or None when a fixed point appears or the
    size cap is exceeded.
    """
    elems = set(partial)
    frontier = [new_elem]
    elems.add(new_elem)
    while frontier:
        item = frontier.pop()
        candidates = [item.inverse()]
        candidates.extend(item * b for b in list(elems))
        candidates.extend(b * item for b in list(elems))
        candidates.extend(
            gperm * item * gperm.inverse() for gperm in conj_gens
        )
        for c in candidates:
            if c in elems:
                continue
            if not c.is_identity() and not c.is_fixed_point_free():
                return None
            elems.add(c)
            if len(elems) > cap:
                return None
            frontier.append(c)
    return elems


def search_regular_subgroups(degree: int, normalizer_gens) -> list:
    """All regular subgroups of Sym({0..degree-1}) normalized by the
    given generators, canonically sorted."""
    gens = list(normalizer_gens)
    if degree == 1:
        return [RegularSubgroup(elements=(Permutation.identity(1),), degree=1)]

    found = {}

    def search(current):
        if len(current) == degree:
            key = tuple(sorted(p.images for p in current))
            if key not in found:
                sub = RegularSubgroup(elements=tuple(current), degree=degree)
                sub.validate()
                found[key] = sub
            return
        covered = {p(0) for p in current}
        target = min(set(range(degree)) - covered)
        for cand in _semiregular_candidates(degree, target):
            closed = _close(current, cand, gens, degree)
            if closed is not None:
                search(closed)

    search({Permutation.identity(degree)})
    return [found[k] for k in sorted(found)]
