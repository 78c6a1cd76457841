"""Reference free-module elements over the Cox ring as dicts
{(j, (alpha, beta)): coeff}, ring elements having j = 0: the oracle for the
keyed scrollres.scroll.CoxPoly."""

import numpy as np

from scrollres.scroll import (
    GENERIC_E,
    CoxPoly,
    add_keys,
    cox_slice,
    key_exponents,
    split_keys,
    term_keys,
)


class DictPoly:
    def __init__(self, prime: int, terms=None):
        self.prime = prime
        self.terms = {k: c % prime for k, c in (terms or {}).items() if c % prime}

    @classmethod
    def from_keyed(cls, poly: CoxPoly) -> "DictPoly":
        gens, monos = split_keys(poly.keys)
        return cls(poly.prime, {
            (int(j), (tuple(int(v) for v in e[:5]), tuple(int(v) for v in e[5:]))): int(c)
            for j, e, c in zip(gens, key_exponents(monos), poly.coefs)
        })

    def keyed(self) -> CoxPoly:
        return CoxPoly(self.prime, term_keys(list(self.terms)), list(self.terms.values()))

    def add(self, other: "DictPoly") -> "DictPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return DictPoly(self.prime, out)

    def scale(self, c: int) -> "DictPoly":
        return DictPoly(self.prime, {k: v * c for k, v in self.terms.items()})

    def sub(self, other: "DictPoly") -> "DictPoly":
        return self.add(other.scale(self.prime - 1))

    def mul(self, other: "DictPoly") -> "DictPoly":
        out: dict = {}
        for (j1, (a1, b1)), c1 in self.terms.items():
            for (j2, (a2, b2)), c2 in other.terms.items():
                key = (j1 + j2, (tuple(u + v for u, v in zip(a1, a2)),
                                 tuple(u + v for u, v in zip(b1, b2))))
                out[key] = out.get(key, 0) + c1 * c2
        return DictPoly(self.prime, out)

    def image(self, gens) -> "DictPoly":
        """Image under the map sending generator j to gens[j]."""
        acc = DictPoly(self.prime)
        for (j, mono), c in self.terms.items():
            acc = acc.add(gens[j].mul(DictPoly(self.prime, {(0, mono): c})))
        return acc

    def bidegrees(self, e=GENERIC_E) -> set:
        return {(sum(alpha), sum(beta) - sum(ai * ei for ai, ei in zip(alpha, e)))
                for _j, (alpha, beta) in self.terms}

    def vector(self, basis) -> np.ndarray:
        """Coefficients over a list of (j, (alpha, beta)) terms; KeyError for
        a term outside it."""
        pos = {t: i for i, t in enumerate(basis)}
        out = np.zeros(len(basis), dtype=np.int64)
        for key, c in self.terms.items():
            out[pos[key]] = c
        return out

    def evaluate(self, values: np.ndarray) -> np.ndarray:
        p = self.prime
        acc = np.zeros(values.shape[1], dtype=np.int64)
        for (_j, (alpha, beta)), c in self.terms.items():
            term = np.full(values.shape[1], c, dtype=np.int64)
            for var, exp in enumerate(alpha + beta):
                for _ in range(exp):
                    term = term * values[var] % p
            acc = (acc + term) % p
        return acc


def module_terms(twists, e, a: int, b: int) -> list:
    """The terms (j, mono) of the degree-(a, b) slice of the free module with
    generator twists, in the order of scroll.module_keys."""
    return [(j, mono) for j, (aj, bj) in enumerate(twists)
            for mono in cox_slice(e, a - aj, b - bj)]


def monomial(p: int, alpha, beta, c: int = 1) -> CoxPoly:
    return CoxPoly(p, term_keys([(0, (tuple(alpha), tuple(beta)))]), [c])


def cox_mul(f: CoxPoly, g: CoxPoly) -> CoxPoly:
    """The keyed product of f with a ring element g: every key sum through
    add_keys, so an exponent reaching KEY_RADIX raises; each coefficient
    product (below p^2 < 2^62) is reduced mod p by the constructor before
    equal keys are summed."""
    keys = add_keys(f.keys[:, None], g.keys[None, :])
    coefs = f.coefs[:, None] * g.coefs[None, :]
    return CoxPoly(f.prime, keys.ravel(), coefs.ravel())
