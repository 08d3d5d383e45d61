"""Evaluate and maximize the edge-monomial polynomial of a hypergraph over
the probability simplex, certify optima through first-order conditions,
and extract dense subgraphs.

The maximizer runs two strategies:

* symmetry reduction — weight-exchangeable vertex classes collapse to
  single block variables with multiplicities, which solves complete and
  near-complete graphs essentially in closed form;
* projected gradient ascent with backtracking line search on the simplex,
  run batched over the uniform start and random restarts.

The reduced polynomial is held once, as the symmetric coefficient tensor
T of its polar form (Ramshaw, "Blossoms are polar forms", CAGD 1989):
f(y) = T(y, .., y).  Everything reads T.  The ascent takes a gradient
table off it, one gather and one matrix product per batch, and the value
from the gradient by Euler's identity; the Newton polish contracts T for
the Hessian; :func:`upper_bound` contracts it with the vertices of
subsimplices for Bernstein coefficients.

These starts and the certification starts below run as one ascent batch
per call, every row on the whole simplex.  Each row runs its own line
search: a pass makes one trial step for every row left, so a row that has
found its step size moves on while another is still halving.  A row
leaves the batch after ``_ASCENT_STEPS`` accepted steps, when it stalls,
or when its line search finds no ascent in 22 halvings.

The best point is polished by a guarded Newton iteration on the active
support, which drops its lightest variable when the optimum is not
isolated there (a face of maximizers makes the Newton system singular).
It is then certified: a result is "certified" only if its first-order
residual is below ``kkt_tol`` (every partial on the support within it of
r times the value, and none off the support above that by more) and
eight extra random starts, which share the batch but are never taken as
the best point, fail to beat its value by more than ``kkt_tol``.  Certification is a stationarity check, not a
proof of global optimality; the value is always a valid lower bound for
the true maximum.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .hypergraph import Hypergraph, complete, complete_minus, equivalence_classes, induced

__all__ = [
    "WeightVector",
    "OptimumResult",
    "OptimizerConfig",
    "evaluate",
    "gradient",
    "maximize",
    "closed_form",
    "ClosedForm",
    "F3_COMPLETION_BOUND",
    "motzkin_straus",
    "is_dense",
    "densify",
    "upper_bound",
]


# ---------------------------------------------------------------------------
# weight vectors


@dataclass(frozen=True)
class WeightVector:
    """A point of the standard simplex: n nonnegative float weights whose
    sum is 1 within 1e-12."""

    weights: tuple[float, ...]

    def __post_init__(self):
        ws = self.weights
        if any(w < 0 for w in ws):
            raise ValueError("weights must be nonnegative")
        if ws and abs(math.fsum(ws) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")


def _coerce_weights(g: Hypergraph, x):
    ws = x.weights if isinstance(x, WeightVector) else tuple(x)
    if len(ws) != g.n:
        raise ValueError(f"weight vector has length {len(ws)}, graph has n={g.n}")
    if any(w < 0 for w in ws):
        raise ValueError("weights must be nonnegative")
    return ws


def _rational(ws) -> bool:
    return bool(ws) and all(isinstance(w, Fraction) for w in ws)


def evaluate(g: Hypergraph, x):
    """Sum over edges of the product of the member weights.  Exact when
    the weights are Fractions, compensated float summation otherwise."""
    ws = _coerce_weights(g, x)
    rational = _rational(ws)
    one = Fraction(1) if rational else 1.0
    terms = [math.prod((ws[v - 1] for v in e), start=one) for e in g.edges]
    return sum(terms, Fraction(0)) if rational else math.fsum(terms)


def gradient(g: Hypergraph, x):
    """Partial derivatives: entry i sums, over edges through i, the product
    of the other member weights."""
    ws = _coerce_weights(g, x)
    rational = _rational(ws)
    one = Fraction(1) if rational else 1.0
    terms: list[list] = [[] for _ in range(g.n)]
    for e in g.edges:
        for v in e:
            terms[v - 1].append(math.prod((ws[u - 1] for u in e if u != v), start=one))
    return [sum(t, Fraction(0)) if rational else math.fsum(t) for t in terms]


# ---------------------------------------------------------------------------
# reduced block problem


def _runs(rows: np.ndarray) -> np.ndarray:
    """Per entry of each sorted row, its place in its run of equal entries,
    from 1; a row's product is the product of its multiplicities'
    factorials."""
    run = np.ones(rows.shape, dtype=np.int64)
    for j in range(1, rows.shape[1]):
        run[:, j] = np.where(rows[:, j] == rows[:, j - 1], run[:, j - 1] + 1, 1)
    return run


def _block_form(g: Hypergraph):
    """The block form of ``g`` as its polar tensor: (T, mults, classes).

    Column k stands for class k of
    :func:`~hyperlag.hypergraph.equivalence_classes`, whose ``mults[k]``
    vertices weigh y_k / mults[k] each.  T is the symmetric tensor with r
    axes of length m and f(y) = T(y, .., y): entry (a, b, ..) is the
    coefficient of the monomial {a, b, ..} shared equally among the
    distinct orderings of that multiset.  An entry rounds at most r+2
    times: 1.0 is divided by mults[k]^(count of k) for each distinct k of
    the monomial in ascending order (at most r roundings; the powers are
    exact integers), multiplied by the number of edges with that monomial,
    and divided by the number of orderings."""
    classes = equivalence_classes(g).classes
    mults = np.array([len(c) for c in classes], dtype=float)
    m, r = len(classes), g.r
    cls = np.zeros(g.n + 1, dtype=np.int64)
    for k, c in enumerate(classes):
        cls[list(c)] = k
    edges = np.array(g.edges, dtype=np.int64).reshape(len(g.edges), r)
    monos, counts = np.unique(np.sort(cls[edges], axis=1), axis=0, return_counts=True)
    run = _runs(monos)
    scale = np.ones(len(monos))
    for j in range(r):
        # the last place of a run of k divides by mults[k]^count
        last = monos[:, j] != monos[:, j + 1] if j + 1 < r else True
        scale = np.where(last, scale / mults[monos[:, j]] ** run[:, j], scale)
    share = counts * scale / (math.factorial(r) // run.prod(axis=1))
    T = np.zeros((m,) * r)
    for order in itertools.permutations(range(r)):
        T[tuple(monos[:, list(order)].T)] = share
    return T, mults, classes


class _BlockProblem:
    """max f(y) = T(y, .., y) over the standard simplex, for T the polar
    tensor of ``g``'s block form (see :func:`_block_form`).

    The gradient table is read off T: per sorted (r-1)-multiset u of
    columns that T uses, the row r * orderings(u) * T[:, u], so that
    grad f(y) sums the rows weighted by the products of y over u.
    :meth:`value_grad` evaluates it by one gather, a product and a matrix
    product, and the value by Euler's identity y . grad f(y) = r f(y).
    :meth:`hessian` is r(r-1) T(y, .., y, ., .), T contracted with y r-2
    times (zero for r = 1, where f is linear).
    """

    def __init__(self, g: Hypergraph):
        self.T, self.mults, self.classes = _block_form(g)
        self.m = m = len(self.mults)
        self.degree = r = g.r
        # T's nonzero columns T[:, u] with u sorted, in lex order
        monos = np.argwhere(self.T.any(axis=0))
        monos = monos[(np.diff(monos, axis=1) >= 0).all(axis=1)]
        orderings = math.factorial(r - 1) // _runs(monos).prod(axis=1)
        flat = monos @ m ** np.arange(r - 2, -1, -1)
        self._monos = monos
        self._coefs = (r * orderings)[:, None] * self.T.reshape(m, -1)[:, flat].T

    def value_grad(self, Y: np.ndarray):
        # for r = 1 the multisets are empty and their products are 1
        G = Y[..., self._monos].prod(axis=-1) @ self._coefs
        return (G * Y).sum(axis=-1) / self.degree, G

    def hessian(self, y: np.ndarray) -> np.ndarray:
        r = self.degree
        if r == 1:
            return np.zeros((self.m, self.m))
        H = self.T
        for _ in range(r - 2):
            H = H @ y
        return r * (r - 1) * H

    def expand(self, y: np.ndarray) -> np.ndarray:
        """Block weights back to per-vertex weights."""
        n = sum(len(c) for c in self.classes)
        x = np.zeros(n)
        for k, c in enumerate(self.classes):
            w = y[k] / self.mults[k]
            for v in c:
                x[v - 1] = w
        return x


# subsimplices one proof may make: a failed proof stays cheaper than one
# maximize call, and at most 47 bisections deep every vertex is exact (see
# upper_bound)
_BOUND_BUDGET = 96


def upper_bound(g: Hypergraph, target: float) -> float:
    """A proved upper bound on the Lagrangian of ``g`` and on
    ``maximize(g).value``, whatever the configuration.  The bound is refined
    best-first until it lies below ``target``, a vertex of the leading
    subsimplex evaluates to at least ``target`` (so no refinement could get
    there), or ``_BOUND_BUDGET`` subsimplices are made; a caller asks
    whether the result is below ``target``.

    The bound is that of the block form f(y) = T(y, .., y) of
    :func:`_block_form`, homogeneous of degree r, over the simplex of class
    weights.  Soundness, in four parts:

    1. λ is the maximum of f.  Swapping two members of one class of
       :func:`~hyperlag.hypergraph.equivalence_classes` is an automorphism,
       so along the line that moves weight between them the edge
       polynomial is symmetric about their mean, and of degree at most two
       with a nonpositive square term (the edges holding both).  So
       averaging two members never lowers it, and repeated averaging makes
       every class uniform: the maximum over the vertex simplex is attained
       on points that f describes.
    2. Bernstein coefficients.  A point of a subsimplex with vertex rows
       v_0..v_{m-1} is sum_a β_a v_a with β in the simplex, so f there is
       T(y, .., y) = sum over ordered r-tuples of β_a β_b .. times
       T(v_a, v_b, ..), whose weights are nonnegative and sum to one.  So
       the largest coefficient T(v_a, v_b, ..) bounds f on the subsimplex,
       and the largest over a set of subsimplices covering the simplex
       bounds λ.  Each subsimplex's coefficients are r contractions of T
       with its vertex rows.  Bisecting the longest edge splits a
       subsimplex into two that cover it; the midpoint of two dyadic
       points is dyadic, and the budget allows at most (96 − 1)/2
       bisections on any chain, so every coordinate is a multiple of
       2^-47, exact in floats, and every vertex lies on the simplex.
    3. The γ margin.  Every term is nonnegative, so each float sum is off
       by at most γ_j = j·u/(1 − j·u) relatively for j roundings on the
       way (Higham, "Accuracy and stability of numerical algorithms",
       §3.1): r+2 in each entry of T (see :func:`_block_form`), m in each
       contraction.  A float ``maximize`` value exceeds λ by at most
       γ_{r(n+1)} relatively: its weights sum to 1 within n roundings, f
       scales by that sum to the r-th power, and each product and the
       compensated sum round once more.  Doubling the count of roundings
       covers the products of these factors and the final multiplication.
    4. The use.  A density search skips a survivor only when this bound is
       strictly below every running best it is offered to, so its
       ``maximize`` value could not have replaced any of them (a running
       best moves only on a strictly larger value).  A proof that does not
       get there costs nothing but its time: the survivor is optimized.
    """
    if not g.edges:
        return 0.0
    T, mults, _ = _block_form(g)
    m, r = len(mults), g.r
    k = 2 * ((r + 2) + r * m + r * (g.n + 1))
    gamma = k * 2.0**-53 / (1 - k * 2.0**-53)
    diag = (np.arange(m),) * r

    def piece(V: np.ndarray, made: int):
        # (minus the largest coefficient, a tie-break, the largest vertex
        # value, the vertex rows); each pass contracts the first axis with
        # the vertex rows and moves the new axis last
        B = T.reshape(m, -1)
        for _ in range(r):
            B = (V @ B).reshape(m, m, -1).transpose(1, 2, 0).reshape(m, -1)
        B = B.reshape(T.shape)
        return -float(B.max()), made, float(B[diag].max()), V

    heap = [piece(np.eye(m), 0)]
    made = 1
    while True:
        neg, _, vertex_best, V = heap[0]
        bound = -neg * (1 + gamma)
        if bound < target or vertex_best >= target or made + 2 > _BOUND_BUDGET:
            return bound
        heapq.heappop(heap)
        G = V @ V.T
        sq = np.diag(G)
        i, j = np.unravel_index(np.argmax(sq[:, None] + sq[None, :] - 2 * G), (m, m))
        mid = (V[i] + V[j]) * 0.5
        for row in (i, j):
            child = V.copy()
            child[row] = mid
            heapq.heappush(heap, piece(child, made))
            made += 1


def _project_rows(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the standard simplex."""
    B, m = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    j = np.arange(1, m + 1)
    cond = U - css / j > 0
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    tau = css[np.arange(B), rho] / (rho + 1)
    return np.maximum(V - tau[:, None], 0.0)


def _pga(problem: _BlockProblem, Y0: np.ndarray, iters: int, tol: float):
    """Batched projected gradient ascent with a per-row backtracking line
    search.

    Each pass makes one trial step for every row still in the batch: a
    row whose trial does not lose value takes it, with the gradient there,
    and grows its step size by 1.25 (capped at 1e3); any other row halves
    its step size and tries again on the next pass.  A row leaves the batch
    after ``iters`` accepted steps, once five accepted steps in a row gain
    less than ``tol``, or when 22 halvings in a row find no ascent
    (stationary at float precision).  Rows never wait for each other, so a
    pass costs one projection and one ``value_grad`` of the rows left."""
    outY = Y0.astype(float).copy()
    outF, G = problem.value_grad(outY)
    if iters <= 0:
        return outY, outF
    idx = np.arange(len(outY))
    Y = outY.copy()
    F = outF.copy()
    eta = np.full(len(Y), 0.25)
    stall = np.zeros(len(Y), dtype=int)
    halved = np.zeros(len(Y), dtype=int)
    steps = np.zeros(len(Y), dtype=int)
    while True:
        cand = _project_rows(Y + eta[:, None] * G)
        fc, gc = problem.value_grad(cand)
        ok = fc >= F
        stall = np.where(ok & (fc - F >= tol), 0, stall + ok)
        Y = np.where(ok[:, None], cand, Y)
        G = np.where(ok[:, None], gc, G)
        F = np.where(ok, fc, F)
        eta = np.where(ok, np.minimum(eta * 1.25, 1e3), eta * 0.5)
        halved = np.where(ok, 0, halved + 1)
        steps += ok
        done = (halved >= 22) | (stall >= 5) | (steps >= iters)
        if done.any():
            outY[idx[done]] = Y[done]
            outF[idx[done]] = F[done]
            keep = ~done
            if not keep.any():
                break
            idx, Y, F, G, eta, stall, halved, steps = (
                idx[keep], Y[keep], F[keep], G[keep], eta[keep], stall[keep], halved[keep],
                steps[keep])
    return outY, outF


_NEWTON_ROUNDS = 8


def _kkt_matrix(H: np.ndarray, S: list[int]) -> np.ndarray:
    """Jacobian of the equal-partial system on support S, with its multiplier."""
    ones = np.ones((len(S), 1))
    return np.block([[H[np.ix_(S, S)], -ones], [ones.T, np.zeros((1, 1))]])


def _newton_polish(problem: _BlockProblem, y_in: np.ndarray):
    """Sharpen a stationary point: Newton on the equal-partial system over
    the active support (with an explicit multiplier variable), then grow
    the support while any inactive variable has a partial above the common
    value, which is a first-order improvement direction.  A singular or
    unproductive Newton system with the residual still at least 1e-13
    means the optimum is not isolated on the support (a face of
    maximizers): the lightest support variable is dropped and the round
    redone.  The same drop happens at a converged point with nothing to
    grow whose system is singular: the ascent stopped inside a face of
    maximizers, and a vertex of the face is where the rational snap can
    prove the value.  The face point is kept in case the drop loses value.
    Never returns a point worse than the input (up to rounding)."""
    m = problem.m
    y = y_in.copy()
    support = set(np.nonzero(y > 1e-9)[0].tolist()) or {int(np.argmax(y))}
    y[[k for k in range(m) if k not in support]] = 0.0
    if y.sum() <= 0:
        return y_in
    y /= y.sum()
    kept = None
    for _round in range(_NEWTON_ROUNDS):
        support = {k for k in support if y[k] > 1e-12} or {int(np.argmax(y))}
        S = sorted(support)
        s = len(S)
        _, g = problem.value_grad(y)
        mu = float(np.mean(g[S]))
        stuck = False
        for _it in range(40):
            F = np.append(g[S] - mu, y[S].sum() - 1.0)
            base_res = float(np.max(np.abs(F)))
            if base_res < 1e-14:
                break
            try:
                delta = np.linalg.solve(_kkt_matrix(problem.hessian(y), S), -F)
            except np.linalg.LinAlgError:
                stuck = True
                break
            step = 1.0
            moved = False
            for _bt in range(30):
                y2 = y.copy()
                y2[S] = y[S] + step * delta[:s]
                mu2 = mu + step * delta[s]
                if (y2[S] >= -1e-12).all():
                    y2 = np.clip(y2, 0.0, None)
                    _, g2 = problem.value_grad(y2)
                    F2 = np.append(g2[S] - mu2, y2[S].sum() - 1.0)
                    if float(np.max(np.abs(F2))) <= base_res * (1.0 - 0.2 * step) + 1e-16:
                        y, mu, g = y2, mu2, g2
                        moved = True
                        break
                step *= 0.5
            if not moved:
                stuck = base_res >= 1e-13
                break
        if not (stuck and s > 1):
            val, g = problem.value_grad(y)
            grow = [k for k in range(m) if k not in support and g[k] > problem.degree * val + 1e-12]
            if grow:
                k = max(grow, key=lambda k: g[k])
                support.add(k)
                y[k] = max(y[k], 1e-4)
                y = y / y.sum()
                continue
            # the system at an isolated optimum is well conditioned (below
            # 1e8 on lambda-corpus); on a face of maximizers it is singular
            if s == 1 or np.linalg.cond(_kkt_matrix(problem.hessian(y), S), np.inf) < 1e12:
                break
            kept = y.copy()
        k = min(S, key=lambda k: y[k])
        support.discard(k)
        y[k] = 0.0
        y /= y.sum()
    # the polished point may evaluate a few ulps below the face point it
    # left or the input; 1e-13 is above that rounding and far below any
    # real loss
    for fallback in (kept, y_in):
        if fallback is not None and (problem.value_grad(y)[0]
                                     < problem.value_grad(fallback)[0] - 1e-13):
            y = fallback
    return y


# ---------------------------------------------------------------------------
# results and configuration


@dataclass(frozen=True)
class OptimizerConfig:
    """The maximizer's settings, one profile for every caller: a density
    search optimizes each maximal survivor once with the configuration it
    was given.  ``restarts`` random starts join the uniform one, drawn from
    ``seed``; ``kkt_tol`` bounds the first-order residual and the margin
    by which a certification start may beat a certified value.  A setting
    the optimizer cannot use is refused with a ValueError naming it."""

    restarts: int = 64
    seed: int = 0
    kkt_tol: float = 1e-8

    def __post_init__(self):
        for name in ("restarts", "seed"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
        tol = self.kkt_tol
        if (isinstance(tol, bool) or not isinstance(tol, (int, float))
                or not (math.isfinite(tol) and tol >= 0)):
            raise ValueError(f"kkt_tol must be a finite number >= 0, got {tol!r}")


# the accepted ascent steps of a row
_ASCENT_STEPS = 400

DEFAULT_CONFIG = OptimizerConfig()


@dataclass(frozen=True)
class OptimumResult:
    value: float
    weighting: WeightVector
    support: tuple[int, ...]
    kkt_residual: float
    restarts: int
    mode: str
    certified: bool
    seed: int
    exact_value: Fraction | None = None

    def to_json(self) -> dict:
        out = {
            "value": self.value,
            "weights": list(self.weighting.weights),
            "support": list(self.support),
            "kkt_residual": self.kkt_residual,
            "certified": self.certified,
            "seed": self.seed,
            "restarts": self.restarts,
            "mode": self.mode,
        }
        if self.exact_value is not None:
            out["exact_value"] = str(self.exact_value)
        return out


_CERT_STARTS = 8


def _dirichlet(rng: np.random.Generator, rows: int, m: int) -> np.ndarray:
    """Uniform points of the simplex: normalized Gamma(1) draws."""
    z = rng.standard_gamma(1.0, size=(rows, m))
    z /= z.sum(axis=1, keepdims=True)
    return z


def _try_rational_snap(g: Hypergraph, x: np.ndarray, value: float, support):
    """Snap weights to small rationals and verify stationarity exactly.
    Returns (exact_value, exact_weights) or None.  The 1e-6 gate only
    proposes a candidate (a point left inside a face of maximizers sits a
    few 1e-8 off its vertex); the checks after it are exact, in integers.
    With L the lcm of the snapped denominators and a_v = L w_v, the value
    is num / L^r for num the sum over edges of the product of the a_v,
    and the partial at v is gnum_v / L^(r-1) for gnum_v the sum over edges
    through v of the product of the other a_u; so the partial equals r
    times the value exactly when gnum_v L = r num."""
    snapped = []
    for w in x:
        fr = Fraction(float(w)).limit_denominator(3150)
        if abs(float(fr) - float(w)) > 1e-6:
            return None
        snapped.append(fr)
    scale = math.lcm(*(w.denominator for w in snapped))
    a = [w.numerator * (scale // w.denominator) for w in snapped]
    if sum(a) != scale:
        return None
    if any(c < 0 for c in a):
        return None
    num = 0
    gnum = [0] * g.n
    for e in g.edges:
        num += math.prod(a[v - 1] for v in e)
        for v in e:
            gnum[v - 1] += math.prod(a[u - 1] for u in e if u != v)
    exact_val = Fraction(num, scale ** g.r)
    if float(exact_val) < value - 1e-9:
        return None
    target = g.r * num
    for v in range(g.n):
        if a[v] > 0:
            if gnum[v] * scale != target:
                return None
        elif gnum[v] * scale > target:
            return None
    return exact_val, tuple(snapped)


def maximize(g: Hypergraph, config: OptimizerConfig = DEFAULT_CONFIG) -> OptimumResult:
    """Best Lagrangian value found together with its certificate data."""
    if g.n == 0 or not g.edges:
        ws = tuple([1.0 / g.n] * g.n) if g.n else ()
        support = tuple(range(1, g.n + 1))
        return OptimumResult(0.0, WeightVector(ws), support, 0.0, 0, "float", True, config.seed)

    problem = _BlockProblem(g)
    m = problem.m
    starts = [np.full((1, m), 1.0 / m),
              _dirichlet(np.random.default_rng(config.seed), config.restarts, m),
              # the certification starts share the batch but never supply the optimum
              _dirichlet(np.random.default_rng(config.seed + 0x9E3779B9), _CERT_STARTS, m)]
    Y, f = _pga(problem, np.vstack(starts), _ASCENT_STEPS, 1e-14)
    best = int(np.argmax(f[:-_CERT_STARTS]))
    y = _newton_polish(problem, Y[best])

    x = problem.expand(y)
    if x.sum() > 0:
        x = x / x.sum()

    # certification data in the original vertex space; the reported value
    # is recomputable as evaluate(g, weighting)
    value = float(evaluate(g, x.tolist()))
    grads = np.array(gradient(g, x.tolist()))
    on = x > 1e-10
    support = tuple(int(v + 1) for v in np.nonzero(on)[0])
    # a maximum on the simplex has every partial on the support equal to
    # r times the value and none off it above that
    excess = grads - g.r * value
    kkt = float(max(np.abs(excess[on]).max(initial=0.0), excess[~on].max(initial=0.0)))

    beaten = float(f[-_CERT_STARTS:].max()) > value + config.kkt_tol
    certified = (kkt <= config.kkt_tol) and not beaten

    mode = "float"
    exact_value = None
    if certified:
        snap = _try_rational_snap(g, x, value, support)
        if snap is not None:
            exact_value, exact_weights = snap
            mode = "rational-certified"
            value = float(exact_value)
            x = np.array([float(w) for w in exact_weights])
    wv = WeightVector(tuple(float(w) for w in x))
    return OptimumResult(value, wv, support, kkt, config.restarts, mode, certified,
                         config.seed, exact_value)


# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class ClosedForm:
    value: float
    blocks: tuple[tuple[int, float], ...] | None = None  # (class size, per-vertex weight)


def closed_form(g: Hypergraph) -> ClosedForm:
    """The known exact optimum of ``g`` when it is a complete graph K_t^r,
    or the 3-uniform K_4^-, K_6^- or K_8^- as :func:`complete_minus`
    labels it.  Raises ValueError for any other graph."""
    t, r = g.n, g.r
    if t >= r and g == complete(t, r):
        return ClosedForm(comb(t, r) / t**r, ((t, 1.0 / t),))
    if r == 3 and t in (4, 6, 8) and g == complete_minus(t):
        if t == 4:
            # one free vertex weight a, three symmetric weights b; 3ab^2 with a+3b=1
            return ClosedForm(4.0 / 81.0, ((1, 1.0 / 3.0), (3, 2.0 / 9.0)))
        if t == 6:
            # a^3 - 3a^2 + a at its critical point a = (3 - sqrt 6)/3
            a = (3.0 - math.sqrt(6.0)) / 3.0
            return ClosedForm(a**3 - 3 * a**2 + a, ((3, a), (3, (1 - 3 * a) / 3)))
        a = (4.0 - math.sqrt(13.0)) / 3.0
        return ClosedForm((5 * a**3 - 20 * a**2 + 5 * a) / 3.0, ((5, a), (3, (1 - 5 * a) / 3)))
    raise ValueError(f"no closed form for {g!r}")


def _f3_completion_bound() -> ClosedForm:
    # blocks: 3 hub vertices at weight x, 6 pendant vertices at weight y
    y = (math.sqrt(873.0) - 15.0) / 162.0
    x = (1.0 - 6.0 * y) / 3.0
    return ClosedForm(x**3 + 8 * y**3 + 18 * x**2 * y + 45 * x * y**2, ((3, x), (6, y)))


# the block bound for the completion of the 9-vertex pendant-star family
F3_COMPLETION_BOUND = _f3_completion_bound()


# ---------------------------------------------------------------------------
# graphs as quadratic programs


def motzkin_straus(g2: Hypergraph) -> tuple[float, int]:
    """For a 2-graph, the Lagrangian equals (1/2)(1 - 1/w) where w is the
    clique number; returns (lambda, w).  Edgeless graphs have w = 1."""
    if g2.r != 2:
        raise ValueError(f"needs a 2-uniform graph, got r={g2.r}")
    adj = [0] * (g2.n + 1)
    for (a, b) in g2.edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    best = 1 if g2.n else 0

    def expand(cand: int, size: int):
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if size + 1 > best:
                best = size + 1
            expand(cand & adj[v], size + 1)

    full = 0
    for v in range(1, g2.n + 1):
        full |= 1 << v
    expand(full, 0)
    if best <= 1:
        return 0.0, best
    return 0.5 * (1.0 - 1.0 / best), best


# ---------------------------------------------------------------------------
# density


# a vertex deletion counts as strict only when it lowers the optimum by more
_STRICTNESS_TOL = 1e-9


def _weak_vertex(g: Hypergraph, value: float, config: OptimizerConfig) -> int | None:
    """The first vertex whose deletion lowers the optimum ``value`` by at
    most ``_STRICTNESS_TOL``, or None if every deletion is strict."""
    for v in range(1, g.n + 1):
        sub = induced(g, [u for u in range(1, g.n + 1) if u != v])
        if maximize(sub, config).value >= value - _STRICTNESS_TOL:
            return v
    return None


def is_dense(g: Hypergraph, config: OptimizerConfig = DEFAULT_CONFIG) -> bool:
    """True iff deleting any single vertex strictly lowers the optimum.
    (Monotonicity under induced subgraphs makes single-vertex deletions
    sufficient.)  The empty graph is not dense by convention."""
    if not g.edges or g.n == 0:
        return False
    return _weak_vertex(g, maximize(g, config).value, config) is None


def densify(g: Hypergraph, config: OptimizerConfig = DEFAULT_CONFIG):
    """A dense subgraph with the same optimum value (within tolerance),
    found by repeatedly restricting to the support of a maximizer and
    dropping vertices whose deletion is not strict.  Returns the subgraph
    and its optimum."""
    cur = g
    while True:
        res = maximize(cur, config)
        if cur.n == 0 or not cur.edges:
            return cur, res
        if len(res.support) < cur.n:
            cur = induced(cur, res.support)
            continue
        weak = _weak_vertex(cur, res.value, config)
        if weak is None:
            return cur, res
        cur = induced(cur, [u for u in range(1, cur.n + 1) if u != weak])
