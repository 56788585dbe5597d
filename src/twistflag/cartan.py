"""Generalized Cartan matrices with a symmetrizability certificate.

Conventions fixed here and used everywhere else in the package:

* nodes are indexed 0..size-1;
* the pairing is <alpha_i, alpha_j^vee> = a[i][j];
* the simple reflection acts on the simple-root basis by
  s_i(alpha_j) = alpha_j - a[j][i] * alpha_i.

Any flip of these conventions must stay confined to this module and
``weyl``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional, Sequence


def _integer(x) -> int:
    """x as an int, or ValueError when it is not an integer (1.7, "2", None)."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"Cartan matrix entry {x!r} is not an integer")


class CartanMatrix:
    """An integer generalized Cartan matrix, validated on construction.

    Requirements: 2 on the diagonal, nonpositive integers off the
    diagonal, a symmetric vanishing pattern, and symmetrizability
    (positive rationals d_i with d_i*a[i][j] = d_j*a[j][i]).  The
    symmetrizer found by the solver is kept as a certificate.
    """

    __slots__ = ("size", "entries", "labels", "symmetrizer")

    def __init__(self, entries: Sequence[Sequence[int]],
                 labels: Optional[Sequence[str]] = None):
        rows = tuple(tuple(_integer(x) for x in row) for row in entries)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("Cartan matrix must be square and nonempty")
        for i in range(n):
            if rows[i][i] != 2:
                raise ValueError(f"diagonal entry [{i}][{i}] must be 2")
            for j in range(n):
                if i != j:
                    if rows[i][j] > 0:
                        raise ValueError(f"off-diagonal entry [{i}][{j}] must be <= 0")
                    if (rows[i][j] == 0) != (rows[j][i] == 0):
                        raise ValueError(f"vanishing pattern broken at ({i},{j})")
        self.size = n
        self.entries = rows
        if labels is None:
            labels = tuple(str(i + 1) for i in range(n))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError("labels length must match matrix size")
            if len(set(labels)) != n:
                raise ValueError("labels must be distinct")
        self.labels = labels
        self.symmetrizer = self._solve_symmetrizer()

    def _solve_symmetrizer(self) -> tuple:
        # Propagate d_i/d_j = a[j][i]/a[i][j] along edges of the Dynkin
        # graph, then verify consistency on every pair.
        n = self.size
        a = self.entries
        d: list = [None] * n
        for start in range(n):
            if d[start] is not None:
                continue
            d[start] = Fraction(1)
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if i == j or a[i][j] == 0:
                        continue
                    val = d[i] * Fraction(a[i][j], a[j][i])
                    if d[j] is None:
                        d[j] = val
                        stack.append(j)
        for i in range(n):
            for j in range(n):
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise ValueError("matrix is not symmetrizable")
        # Clear denominators so the certificate is integral.
        lcm = math.lcm(*(x.denominator for x in d))
        out = tuple(int(x * lcm) for x in d)
        if any(x <= 0 for x in out):
            raise ValueError("symmetrizer is not positive")
        return out

    @classmethod
    def from_config(cls, config: dict) -> "CartanMatrix":
        """Build from the JSON config schema {"cartan": [[...]], "labels": [...]}."""
        return cls(config["cartan"], config.get("labels"))

    @classmethod
    def from_json(cls, text: str) -> "CartanMatrix":
        return cls.from_config(json.loads(text))

    def to_config(self) -> dict:
        return {"cartan": [list(r) for r in self.entries],
                "labels": list(self.labels)}

    def node_of_label(self, label: str) -> int:
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise ValueError(f"unknown node label {label!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, CartanMatrix) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"CartanMatrix({[list(r) for r in self.entries]})"


# Matrices used throughout the test batteries.
def cartan_A(n: int) -> CartanMatrix:
    """Type A_n Cartan matrix (n >= 1)."""
    e = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
         for i in range(n)]
    return CartanMatrix(e)


def cartan_B2() -> CartanMatrix:
    return CartanMatrix([[2, -2], [-1, 2]])


def cartan_G2() -> CartanMatrix:
    return CartanMatrix([[2, -3], [-1, 2]])


def cartan_affine_A1() -> CartanMatrix:
    return CartanMatrix([[2, -2], [-2, 2]])
