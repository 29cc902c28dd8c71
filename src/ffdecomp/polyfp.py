"""Dense univariate polynomial arithmetic over F_p.

Polynomials are lists of coefficients, lowest degree first, reduced mod p.
Only what the character-sum verifiers need: evaluation, gcd, derivative,
and the degrees of the chain f, gcd(f, f'), ... (root multiplicities, valid
here because degrees stay below p).
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


def gcd_chain_degrees(f: list[int], p: int) -> list[int]:
    """Degrees of f_0 = f, f_{k+1} = gcd(f_k, f_k'), down to degree 0.

    Requires deg f < p.  Every root of f in the algebraic closure then has a
    multiplicity m < p, which the derivative lowers to exactly m - 1, so
    gcd(f_k, f_k') keeps each root of f_k with one multiplicity less and
    deg f_k is the sum of max(m - k, 0) over the distinct roots.
    """
    f = normalize(f, p)
    if not f:
        raise ValueError("zero polynomial")
    if degree(f) >= p:
        raise ValueError(f"degree {degree(f)} >= p = {p}: the gcd chain needs deg f < p")
    degrees = [degree(f)]
    while degrees[-1] > 0:
        f = gcd(f, derivative(f, p), p)
        degrees.append(degree(f))
    return degrees


def distinct_root_count(f: list[int], p: int) -> int:
    """Number of distinct roots over the algebraic closure: deg f_0 - deg f_1
    in the gcd chain, the roots of multiplicity at least 1."""
    degrees = gcd_chain_degrees(f, p) + [0]
    return degrees[0] - degrees[1]


def is_perfect_power(f: list[int], p: int, d: int) -> bool:
    """Whether f = c * g(x)**d for some polynomial g and constant c."""
    f = normalize(f, p)
    if not f:
        raise ValueError("zero polynomial")
    if degree(f) == 0:
        return True  # constants are c * 1**d
    if degree(f) % d != 0:
        return False
    # at_least[m - 1] = deg f_{m-1} - deg f_m roots have multiplicity >= m,
    # so at_least[m - 1] - at_least[m] have multiplicity exactly m
    degrees = gcd_chain_degrees(f, p) + [0]
    at_least = [a - b for a, b in zip(degrees, degrees[1:])]
    return all(at_least[m - 1] == at_least[m] for m in range(1, len(at_least)) if m % d)
