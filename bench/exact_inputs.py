"""Seeded candidate files for the ``exact`` workload.

Every candidate is built from the package's own public constructors, and
its construction fixes the verdict ``geodesy check --json`` must report:

* ``sparse``: ``embedding_with_rank(p, m)``, m copies of the standard
  representation padded by trivials.  Passes, totally geodesic.
* ``dense``: a sparse candidate conjugated by a block-diagonal unitary
  ``diag(U1, U2)``, each block ``Q C Q*`` with C the Cayley transform
  ``(I - A)(I + A)^-1`` of a skew-Hermitian A and Q a random monomial
  unitary (a permutation with phases 1, i, -1, -i).  The unitary lies in
  the compact subgroup, so every condition, total geodesy and the
  per-block weight spectrum are kept, while every entry becomes a dense
  rational.
* ``noncompact``: a sparse candidate conjugated by the boost ``(a b; b a)``
  with ``a^2 - b^2 = 1``, mixing one plus coordinate inside the image
  with one minus coordinate.  The boost lies in U(p,p), so the bracket
  table still holds, but the image of w gains a tangent component:
  condition (1) fails.
* ``broken``: F(u) of a sparse candidate gains the su(p,p) element
  ``i*q*(E_kk - E_(p+k)(p+k))`` with k inside the image; it does not
  commute with F(v), so the relation [u,v] = -2w fails.

The ranks, kinds, multiplicities m and the matrices A are the same for
every seed; the seed draws the monomials Q, the boosted coordinates and
the perturbations.  So every seed gives other files but the same entry
sizes, and the same amount of work for the checker.
"""

from __future__ import annotations

import random
from fractions import Fraction

from geodesy.candidates import embedding_with_rank, save_candidate
from geodesy.checker import EmbeddingCandidate
from geodesy.gaussmat import GaussMatrix, GaussRational

RANKS = range(2, 7)
# kind -> candidates per rank
MIX = {"sparse": 1, "dense": 1, "noncompact": 1, "broken": 1}


def _cayley(p: int) -> GaussMatrix:
    """The Cayley transform of a fixed skew-Hermitian p x p matrix with
    entries in {-1, 0, 1} + i{-1, 0, 1}; I + A is invertible because the
    eigenvalues of A are imaginary."""
    rng = random.Random(p)
    rows = [[GaussRational(0)] * p for _ in range(p)]
    for i in range(p):
        rows[i][i] = GaussRational(0, rng.randint(-1, 1))
        for j in range(i + 1, p):
            z = GaussRational(rng.randint(-1, 1), rng.randint(-1, 1))
            rows[i][j] = z
            rows[j][i] = -z.conjugate()
    a = GaussMatrix(rows)
    eye = GaussMatrix.identity(p)
    return (eye - a) @ (eye + a).inverse()


def _monomial(rng: random.Random, n: int) -> GaussMatrix:
    perm = list(range(n))
    rng.shuffle(perm)
    phases = (GaussRational(1), GaussRational(0, 1), GaussRational(-1), GaussRational(0, -1))
    return GaussMatrix([[rng.choice(phases) if j == perm[i] else 0 for j in range(n)] for i in range(n)])


def _compact_conjugate(rng: random.Random, c: EmbeddingCandidate, cayley: GaussMatrix) -> EmbeddingCandidate:
    """Conjugate by diag(U1, U2), block by block: U1 X U1*, U1 X U2*, ..."""
    p = c.shape.p
    blocks = []
    for _ in range(2):
        q = _monomial(rng, p)
        u = q @ cayley @ q.conj_transpose()
        blocks.append((u, u.conj_transpose()))

    def conj(m: GaussMatrix) -> GaussMatrix:
        rows = []
        for i, (u, _) in enumerate(blocks):
            row = []
            for j, (_, v) in enumerate(blocks):
                x = m.submatrix(i * p, (i + 1) * p, j * p, (j + 1) * p)
                # the sparse factor goes first: GaussMatrix.__matmul__ skips
                # zero entries of its left operand
                row.append(x if x.is_zero() else u @ (x @ v))
            rows.append(row)
        return GaussMatrix.block(rows)

    return EmbeddingCandidate(shape=c.shape, f_u=conj(c.f_u), f_v=conj(c.f_v), f_w=conj(c.f_w))


def _boost(rng: random.Random, c: EmbeddingCandidate, m: int) -> EmbeddingCandidate:
    """Conjugate by g = I + (a-1)(E_ii + E_jj) + b(E_ij + E_ji), whose inverse
    has -b off the diagonal; only rows and columns i and j change."""
    p = c.shape.p
    a, b = GaussRational(Fraction(5, 3)), GaussRational(Fraction(4, 3))
    i, j = rng.randrange(m), p + rng.randrange(p)

    def conj(x: GaussMatrix) -> GaussMatrix:
        rows = [list(x.row(r)) for r in range(x.rows)]
        rows[i], rows[j] = (
            [a * s + b * t for s, t in zip(rows[i], rows[j])],
            [b * s + a * t for s, t in zip(rows[i], rows[j])],
        )
        for row in rows:
            row[i], row[j] = a * row[i] - b * row[j], a * row[j] - b * row[i]
        return GaussMatrix(rows)

    return EmbeddingCandidate(shape=c.shape, f_u=conj(c.f_u), f_v=conj(c.f_v), f_w=conj(c.f_w))


def _broken(rng: random.Random, c: EmbeddingCandidate, m: int) -> EmbeddingCandidate:
    p = c.shape.p
    k, q = rng.randrange(m), GaussRational(0, rng.randint(1, 3))
    diag = [GaussRational(0)] * (2 * p)
    diag[k], diag[p + k] = q, -q
    return EmbeddingCandidate(c.shape, c.f_u + GaussMatrix.diagonal(diag), c.f_v, c.f_w)


def _spectrum(p: int, m: int) -> dict:
    plus = {w: k for w, k in (("1", m), ("0", p - m)) if k}
    minus = {w: k for w, k in (("0", p - m), ("-1", m)) if k}
    return {"plus": plus, "minus": minus}


def _expectation(kind: str, p: int, m: int) -> dict:
    if kind in ("sparse", "dense"):
        return {
            "exit": 0,
            "is_homomorphism": True,
            "satisfies_c1": True,
            "satisfies_c3": True,
            "passed": True,
            "totally_geodesic": True,
            "injective": True,
            "weight_spectrum": _spectrum(p, m),
        }
    if kind == "noncompact":
        return {"exit": 1, "is_homomorphism": True, "satisfies_c1": False, "passed": False}
    return {"exit": 1, "is_homomorphism": False, "passed": False}


def generate(seed: int, directory) -> list:
    """Write the candidate files under ``directory``; return their manifest."""
    rng = random.Random(seed)
    manifest = []
    for p in RANKS:
        cayley = _cayley(p)
        for kind, count in MIX.items():
            for k in range(count):
                m = p - k * (p - 1) // max(count - 1, 1)  # spread over p..1
                base = embedding_with_rank(p, m)
                if kind == "sparse":
                    cand = base
                elif kind == "dense":
                    cand = _compact_conjugate(rng, base, cayley)
                elif kind == "noncompact":
                    cand = _boost(rng, base, m)
                else:
                    cand = _broken(rng, base, m)
                name = f"p{p}-{kind}-{k}.json"
                save_candidate(cand, directory / name)
                manifest.append({"file": name, "p": p, "kind": kind, "m": m, "expect": _expectation(kind, p, m)})
    return manifest
