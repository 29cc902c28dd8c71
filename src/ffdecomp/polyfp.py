"""Dense univariate polynomial arithmetic over F_p.

Polynomials are lists of coefficients, lowest degree first, reduced mod p.
Only what the character-sum verifiers need: evaluation, gcd, derivative,
and Yun's squarefree decomposition (valid here because degrees stay below p).
"""

from __future__ import annotations


def trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def degree(c: list[int]) -> int:
    """Degree, with -1 for the zero polynomial."""
    c = trim(c)
    return len(c) - 1


def normalize(c, p: int) -> list[int]:
    return trim([x % p for x in c])


def evaluate(c: list[int], x: int, p: int) -> int:
    acc = 0
    for coeff in reversed(c):
        acc = (acc * x + coeff) % p
    return acc


def poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = trim(list(a))
    b = trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return [], a
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        coeff = rem[k + len(b) - 1] * inv_lead % p
        if coeff:
            quot[k] = coeff
            for j, bj in enumerate(b):
                rem[k + j] = (rem[k + j] - coeff * bj) % p
    return trim(quot), trim(rem)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd."""
    a = trim(list(a))
    b = trim(list(b))
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def derivative(c: list[int], p: int) -> list[int]:
    return trim([i * c[i] % p for i in range(1, len(c))])


def monic(c: list[int], p: int) -> tuple[int, list[int]]:
    """Split into (leading coefficient, monic part)."""
    c = trim(list(c))
    if not c:
        raise ValueError("zero polynomial has no monic part")
    lead = c[-1]
    inv = pow(lead, -1, p)
    return lead, [x * inv % p for x in c]


def squarefree_decomposition(f: list[int], p: int) -> tuple[int, list[tuple[list[int], int]]]:
    """Yun's algorithm: f = lc * prod(a_i ** i) with the a_i squarefree, coprime.

    Requires deg f < p so that no multiplicity reaches the characteristic
    (all relevant derivatives then behave classically).
    """
    f = normalize(f, p)
    if not f:
        raise ValueError("zero polynomial")
    if degree(f) >= p:
        raise ValueError(f"degree {degree(f)} >= p = {p}: decomposition needs deg f < p")
    lc, f = monic(f, p)
    factors: list[tuple[list[int], int]] = []
    if degree(f) == 0:
        return lc, factors
    df = derivative(f, p)
    g = gcd(f, df, p)
    c, _ = poly_divmod(f, g, p)
    d_, _ = poly_divmod(df, g, p)
    d_ = trim([(x - y) % p for x, y in _pad(d_, derivative(c, p))])
    i = 1
    while degree(c) > 0:
        a = gcd(c, d_, p)
        if degree(a) > 0:
            factors.append((a, i))
        c, _ = poly_divmod(c, a, p)
        quot, _ = poly_divmod(d_, a, p)
        d_ = trim([(x - y) % p for x, y in _pad(quot, derivative(c, p))])
        i += 1
    return lc, factors


def _pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def distinct_root_count(f: list[int], p: int) -> int:
    """Number of distinct roots over the algebraic closure: the degree of
    the squarefree part (separable because deg f < p is enforced)."""
    _, factors = squarefree_decomposition(f, p)
    return sum(degree(a) for a, _ in factors)


def is_perfect_power(f: list[int], p: int, d: int) -> bool:
    """Whether f = c * g(x)**d for some polynomial g and constant c."""
    f = normalize(f, p)
    if not f:
        raise ValueError("zero polynomial")
    if degree(f) == 0:
        return True  # constants are c * 1**d
    if degree(f) % d != 0:
        return False
    _, factors = squarefree_decomposition(f, p)
    return all(mult % d == 0 for _, mult in factors)
