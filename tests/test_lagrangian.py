import dataclasses
import importlib
import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlag.corpora import random_hypergraph, random_simplex_point
from hyperlag.hypergraph import (
    Hypergraph,
    blowup,
    complete,
    complete_minus,
    compress,
    equivalence_classes,
    linear_path,
    matching,
    named,
    new,
    relabel,
    turan_blowup,
)
from hyperlag import lagrangian
from hyperlag.lagrangian import (
    OptimumResult,
    WeightVector,
    _BlockProblem,
    closed_form,
    densify,
    evaluate,
    gradient,
    is_dense,
    maximize,
    motzkin_straus,
    upper_bound,
)


ROOT = Path(__file__).resolve().parent.parent


def matching_grid_max(denom):
    """Independent brute-force oracle: maximum of M2's edge polynomial over
    the grid points of the simplex with coordinates k/denom, one point per
    orbit of M2's automorphism group (permute within either edge {1,2,3},
    {4,5,6}, swap the two): coordinates non-increasing within each edge,
    and the first edge's tuple no smaller than the second's."""
    g = matching(2, 3)

    def sorted_triples(total):
        for a in range(total, -1, -1):
            for b in range(min(a, total - a), -1, -1):
                if total - a - b <= b:
                    yield (a, b, total - a - b)

    best = 0.0
    for s in range(denom + 1):
        for first in sorted_triples(s):
            for second in sorted_triples(denom - s):
                if first >= second:
                    best = max(best, evaluate(g, [p / denom for p in first + second]))
    return best


# ---------------------------------------------------------------------------
# evaluate / gradient


def test_evaluate_examples():
    assert evaluate(complete(4, 3), [0.25] * 4) == pytest.approx(1 / 16, abs=1e-15)
    assert evaluate(new(3, 3, [(1, 2, 3)]), [Fraction(1, 3)] * 3) == Fraction(1, 27)
    assert evaluate(complete(4, 3), [1.0, 0.0, 0.0, 0.0]) == 0.0


def test_evaluate_exact_rational():
    val = evaluate(complete(4, 3), [Fraction(1, 4)] * 4)
    assert val == Fraction(1, 16)


def test_int_weights_keep_evaluate_and_gradient_exact():
    # a plain int among Fractions is exact too; a single float makes the call a float one
    g = new(2, 3, [(1, 2), (1, 3)])
    half = Fraction(1, 2)
    value, grads = evaluate(g, [half, 0, half]), gradient(g, [half, 0, half])
    assert type(value) is Fraction and value == Fraction(1, 4)
    assert all(type(d) is Fraction for d in grads) and grads == [half] * 3
    value, grads = evaluate(g, [0.5, 0, half]), gradient(g, [0.5, 0, half])
    assert type(value) is float and value == 0.25
    assert all(type(d) is float for d in grads) and grads == [0.5] * 3


def _fraction_sums(g, ws):
    """The value and partials at Fraction weights as plain Fraction sums,
    independent of ``evaluate`` and ``gradient``."""
    value = sum((math.prod(ws[v - 1] for v in e) for e in g.edges), Fraction(0))
    grads = [sum((math.prod(ws[u - 1] for u in e if u != v) for e in g.edges if v in e), Fraction(0))
             for v in range(1, g.n + 1)]
    return value, grads


def _rational_points(rnd, n):
    """Rational points of the simplex: some with zero weights, some with
    unrelated denominators."""
    counts = [rnd.randint(0, 4) for _ in range(n)]
    counts[rnd.randrange(n)] += 1
    yield [Fraction(c, sum(counts)) for c in counts]
    yield [Fraction(1, 1) if v == 0 else Fraction(0) for v in range(n)]
    parts = [Fraction(rnd.randint(0, 9), rnd.randint(1, 12)) for _ in range(n - 1)]
    total = sum(parts, Fraction(0))
    yield [w / (total + 1) for w in parts] + [1 / (total + 1)]


def test_exact_evaluate_and_gradient_are_the_fraction_sums():
    rnd = random.Random(21)
    graphs = [Hypergraph(3, 4, ()), Hypergraph(2, 3, ())]
    graphs += [random_hypergraph(rnd, rnd.randint(r + 1, 8), r=r) for r in (2, 3, 4) for _ in range(5)]
    for g in graphs:
        for ws in _rational_points(rnd, g.n):
            value, grads = _fraction_sums(g, ws)
            got, got_grads = evaluate(g, ws), gradient(g, ws)
            assert type(got) is Fraction and got == value, (g, ws)
            assert all(type(d) is Fraction for d in got_grads)
            assert got_grads == grads, (g, ws)


def test_evaluate_errors():
    with pytest.raises(ValueError):
        evaluate(complete(4, 3), [0.5, 0.5])
    with pytest.raises(ValueError):
        evaluate(complete(4, 3), [0.5, 0.5, 0.5, -0.5])


def test_gradient_examples():
    grads = gradient(complete(4, 3), [0.25] * 4)
    assert grads == pytest.approx([3 / 16] * 4)
    assert gradient(new(3, 3, [(1, 2, 3)]), [1.0, 0.0, 0.0]) == [0.0, 0.0, 0.0]


@given(st.integers(4, 7), st.integers(0, 10**6))
@settings(max_examples=40)
def test_euler_identity(n, seed):
    rnd = random.Random(seed)
    g = random_hypergraph(rnd, n)
    x = random_simplex_point(rnd, n)
    lam = evaluate(g, x)
    grads = gradient(g, x)
    assert math.fsum(xi * gi for xi, gi in zip(x, grads)) == pytest.approx(3 * lam, abs=1e-12)


@given(st.integers(4, 6), st.integers(0, 10**6))
@settings(max_examples=25)
def test_gradient_matches_central_differences(n, seed):
    rnd = random.Random(seed)
    g = random_hypergraph(rnd, n)
    x = [w * 0.9 + 0.1 / n for w in random_simplex_point(rnd, n)]
    grads = gradient(g, x)
    h = 1e-6
    for i in range(n):
        up = list(x)
        dn = list(x)
        up[i] += h
        dn[i] -= h
        fd = (evaluate(g, up) - evaluate(g, dn)) / (2 * h)
        assert grads[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# maximize


def test_maximize_known_values():
    assert maximize(complete_minus(4, 3)).value == pytest.approx(4 / 81, abs=1e-9)
    assert maximize(complete(5, 3)).value == pytest.approx(2 / 25, abs=1e-12)
    assert maximize(Hypergraph(3, 4, ())).value == 0.0
    assert maximize(Hypergraph(3, 0, ())).value == 0.0


def test_maximize_matching_grid_oracle():
    # independent confirmation on the 1/60 grid; the exact optimum sits on
    # the grid, so the oracle value is also the frozen expectation
    g = matching(2, 3)
    res = maximize(g)
    assert res.value == pytest.approx(1 / 27, abs=1e-9)
    oracle = matching_grid_max(60)
    assert oracle == pytest.approx(1 / 27, abs=1e-15)
    assert res.value >= oracle - 1e-9


def test_maximize_result_is_recomputable():
    for g in (complete(5, 3), complete_minus(6, 3), matching(2, 3)):
        res = maximize(g)
        assert evaluate(g, res.weighting.weights) == pytest.approx(res.value, abs=1e-12)
        assert set(res.support) == {v + 1 for v, w in enumerate(res.weighting.weights) if w > 1e-10}


def test_maximize_certification_fields():
    res = maximize(complete(6, 3))
    assert res.certified and res.kkt_residual <= 1e-8
    assert res.mode == "rational-certified"
    assert res.exact_value == Fraction(5, 54)
    res2 = maximize(complete_minus(6, 3))
    assert res2.certified and res2.mode == "float"  # irrational optimum


def test_maximize_deterministic_given_seed():
    g = random_hypergraph(random.Random(5), 8)
    a = maximize(g, 3)
    b = maximize(g, 3)
    assert a.value == b.value and a.weighting == b.weighting


def _assert_certified_exactly(g, seeds):
    for seed in seeds:
        res = maximize(g, seed)
        assert res.certified, seed
        assert res.kkt_residual <= 1e-12, (seed, res.kkt_residual)
        assert (res.mode == "rational-certified") == (res.exact_value is not None), seed


def test_mode_is_read_off_the_exact_value():
    # mode is not stored, so it cannot disagree with exact_value
    assert "mode" not in {f.name for f in dataclasses.fields(OptimumResult)}
    modes = []
    for g in (complete(6, 3), complete_minus(6, 3), complete(4, 3), matching(2, 3),
              turan_blowup(4, 3, 8), Hypergraph(3, 2, ())):
        res = maximize(g)
        assert res.certified, g
        assert (res.mode == "rational-certified") == (res.exact_value is not None), g
        assert res.to_json()["mode"] == res.mode
        modes.append(res.mode)
    assert modes == ["rational-certified", "float", "rational-certified", "rational-certified",
                     "rational-certified", "float"]


def test_polish_keeps_its_converged_point():
    # Newton polishes these to a residual near 0, but the polished point
    # evaluates a few ulps below the PGA point; it must still be kept
    rnd = random.Random(7)
    for _ in range(122):
        n = rnd.randint(6, 10)
        g = random_hypergraph(rnd, n)
    _assert_certified_exactly(g, [0])
    triangle = new(2, 9, [(1, 7), (2, 4), (2, 6), (2, 9), (4, 7), (5, 9), (6, 9)])
    _assert_certified_exactly(triangle, range(12))
    assert maximize(triangle).exact_value == Fraction(1, 3)


def test_polish_leaves_a_face_of_maximizers():
    # the maximizers form a face, so the KKT Jacobian on the PGA support
    # is singular; the polish must drop support variables to reach a vertex
    g = new(2, 10, [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 10), (2, 5),
                    (2, 6), (2, 8), (2, 10), (3, 4), (3, 5), (3, 6), (3, 8), (3, 9), (4, 5),
                    (4, 6), (4, 7), (4, 8), (4, 9), (4, 10), (5, 6), (5, 7), (5, 10), (6, 8),
                    (6, 9), (6, 10), (7, 8), (7, 9), (7, 10), (8, 9), (9, 10)])
    _assert_certified_exactly(g, range(12))
    assert maximize(g).value == pytest.approx(motzkin_straus(g)[0], abs=1e-15)


def test_polish_moves_to_a_vertex_of_a_face_of_maximizers():
    # the ascent stops far inside a face of maximizers, at a converged
    # point whose block weights are not small rationals (in the first
    # graph vertices 2 and 3 share 1/3 as about 0.251 and 0.082); the
    # polish must drop to a vertex of the face for the snap to prove it
    for g, exact in ((new(3, 7, [(1, 2, 4), (1, 3, 4), (1, 6, 7), (3, 4, 5)]), Fraction(1, 27)),
                     (new(3, 7, [(1, 2, 3), (1, 3, 4), (1, 3, 6), (1, 4, 5), (1, 4, 6), (1, 5, 6),
                                 (1, 5, 7), (2, 3, 5), (2, 4, 6), (2, 5, 7), (4, 6, 7)]),
                      Fraction(4, 81))):
        res = maximize(g)
        assert res.mode == "rational-certified", g
        assert res.exact_value == exact


def test_rational_snap_inside_a_face_of_maximizers():
    # the ascent stops inside a face of maximizers, one block weight at
    # 6.6e-8 and the others a few 1e-8 off 1/4; the snap must still reach
    # the vertex (1/4, 0, 0, 1/4, 0, 1/4, 1/4) and prove it exactly
    g = new(3, 7, [(1, 2, 3), (1, 2, 5), (1, 3, 7), (1, 4, 6), (1, 4, 7), (1, 5, 7), (1, 6, 7),
                   (2, 3, 5), (2, 3, 7), (2, 5, 6), (2, 6, 7), (3, 4, 5), (3, 5, 6), (3, 6, 7),
                   (4, 5, 7), (4, 6, 7), (5, 6, 7)])
    res = maximize(g)
    assert res.mode == "rational-certified"
    assert res.exact_value == Fraction(1, 16)


def _fraction_snap(g, x, value):
    """The rational snap with every check made on plain Fraction sums: the
    exactness oracle for ``lagrangian._try_rational_snap``, which reads
    the exact ``evaluate`` and ``gradient`` through ``_kkt``."""
    snapped = []
    for w in x:
        fr = Fraction(float(w)).limit_denominator(3150)
        if abs(float(fr) - float(w)) > 1e-6:
            return None
        snapped.append(fr)
    if sum(snapped, Fraction(0)) != 1:
        return None
    if any(w < 0 for w in snapped):
        return None
    exact_val, grads = _fraction_sums(g, snapped)
    if float(exact_val) < value - 1e-9:
        return None
    target = g.r * exact_val
    for v in range(1, g.n + 1):
        if snapped[v - 1] > 0:
            if grads[v - 1] != target:
                return None
        elif grads[v - 1] > target:
            return None
    return exact_val, tuple(snapped)


def test_rational_snap_agrees_with_the_fraction_oracle():
    rnd = random.Random(13)
    graphs = [complete(3, 3), complete(5, 3), complete(7, 3), complete(5, 2), complete(4, 4),
              complete_minus(6, 3), turan_blowup(4, 3, 8), turan_blowup(3, 2, 7),
              new(3, 6, list(complete(4, 3).edges) + [(4, 5, 6)]),  # optimum 0 on 5 and 6
              new(3, 6, [(1, 2, 3), (1, 2, 4)]),  # 5 and 6 on no edge
              new(2, 3, [(1, 2)])]  # (-1/2, 0, 3/2) is stationary
    graphs += [random_hypergraph(rnd, rnd.randint(4, 8), r=rnd.choice((2, 3))) for _ in range(12)]
    outcomes = []
    for g in graphs:
        res = maximize(g)
        points = [res.weighting.weights]
        for _ in range(6):
            support = rnd.sample(range(g.n), rnd.randint(1, g.n))
            points.append([1 / len(support) if v in support else 0.0 for v in range(g.n)])
            counts = [rnd.randint(0, 4) for _ in range(g.n)]
            if sum(counts):
                points.append([c / sum(counts) for c in counts])
            points.append(random_simplex_point(rnd, g.n))
        points.append([w * 1.01 for w in points[0]])  # off the simplex
        points.append([0.0] * (g.n - 2) + [0.5, 0.51])  # off it, stationary where they span no edge
        points.append([-0.5, 0.0, 1.5] + [0.0] * (g.n - 3))  # a negative weight
        for x in points:
            value = float(evaluate(g, list(x))) if min(x) >= 0 else 0.0
            for claimed in (value, value + 1e-6):  # the second is above the snapped value
                args = (g, np.array(x), claimed)
                got = lagrangian._try_rational_snap(*args)
                assert got == _fraction_snap(*args), (g, x, claimed)
                outcomes.append(got is not None)
    assert 20 < sum(outcomes) < len(outcomes) - 100


def test_certification_starts_never_supply_the_optimum(monkeypatch):
    # two disjoint K4^3: the uniform start stalls at the saddle 1/64 and
    # only the random starts reach 1/16
    k4 = complete(4, 3)
    g = new(3, 8, list(k4.edges) + [tuple(v + 4 for v in e) for e in k4.edges])
    with monkeypatch.context() as m:
        m.setattr(lagrangian, "_RESTARTS", 0)
        res = maximize(g)
    assert res.value == pytest.approx(1 / 64, abs=1e-15)
    assert res.certified is False
    res = maximize(g)
    assert res.value == pytest.approx(1 / 16, abs=1e-15)
    assert res.certified and res.mode == "rational-certified"


def test_one_ascent_batch_per_maximize(monkeypatch):
    calls = []
    pga = lagrangian._pga

    def counting(*args, **kwargs):
        calls.append(args)
        return pga(*args, **kwargs)

    monkeypatch.setattr(lagrangian, "_pga", counting)
    g = random_hypergraph(random.Random(3), 7)
    for seed in (0, 5):
        calls.clear()
        maximize(g, seed)
        assert len(calls) == 1


@given(st.sampled_from([2, 3, 4]), st.integers(3, 8), st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_block_gradient_matches_vertex_gradient(r, n, seed, blow):
    rnd = random.Random(seed)
    g = random_hypergraph(rnd, max(n, r), r=r)
    if blow:
        # blown-up classes are weight-exchangeable, so blocks get multiplicities
        g = blowup(g, [rnd.randint(1, 3) for _ in range(g.n)])
    problem = _BlockProblem(g)
    y = np.array(random_simplex_point(rnd, problem.m))
    value, got = problem.value_grad(y[None, :])
    x = problem.expand(y).tolist()
    assert value[0] == pytest.approx(evaluate(g, x), abs=1e-13)
    want = gradient(g, x)
    for k, cls in enumerate(problem.classes):
        for v in cls:
            assert got[0, k] == pytest.approx(want[v - 1], abs=1e-13)


def test_maximize_a_one_uniform_graph():
    # two singleton edges: the form is linear, its gradient table has one
    # empty multiset and its Hessian is zero
    res = maximize(Hypergraph(1, 3, ((1,), (2,))))
    assert res.value == 1.0
    assert res.certified and res.exact_value == 1


def _loop_polar_tensor(g):
    """The per-entry loop that _block_form replaced, kept as its reference:
    each entry is computed by the same operations in the same order."""
    classes = equivalence_classes(g).classes
    idx = {v: k for k, c in enumerate(classes) for v in c}
    counts = {}
    for e in g.edges:
        mono = tuple(sorted(idx[v] for v in e))
        counts[mono] = counts.get(mono, 0) + 1
    T = np.zeros((len(classes),) * g.r)
    for mono, count in counts.items():
        scale = 1.0
        for k in sorted(set(mono)):
            scale /= float(len(classes[k])) ** mono.count(k)
        orders = set(itertools.permutations(mono))
        for order in orders:
            T[order] = count * scale / len(orders)
    return T


@given(st.sampled_from([2, 3, 4]), st.integers(3, 6), st.integers(0, 10**6), st.booleans())
@settings(max_examples=100, deadline=None)
def test_block_form_matches_the_per_entry_loop(r, n, seed, blow):
    # classes of up to five vertices make coefficients that a reordered
    # division rounds differently
    rnd = random.Random(seed)
    g = random_hypergraph(rnd, max(n, r), r=r)
    if blow:
        g = blowup(g, [rnd.randint(1, 5) for _ in range(g.n)])
    T, mults, classes = lagrangian._block_form(g)
    assert T.tobytes() == _loop_polar_tensor(g).tobytes()
    assert classes == equivalence_classes(g).classes
    assert mults.tolist() == [len(c) for c in classes]


def _exact_block_hessian(g, problem, y):
    """H[k, l] = sum over u in class k, v in class l of d^2F/dx_u dx_v,
    divided by mults[k] * mults[l], where F is the vertex polynomial at
    the expanded point; the second partials are summed in Fractions."""
    cls = {v: k for k, c in enumerate(problem.classes) for v in c}
    x = {v: Fraction(float(y[k])) / len(problem.classes[k]) for v, k in cls.items()}
    m = problem.m
    H = [[Fraction(0)] * m for _ in range(m)]
    for e in g.edges:
        for u, v in itertools.permutations(e, 2):
            H[cls[u]][cls[v]] += math.prod((x[w] for w in e if w not in (u, v)), start=Fraction(1))
    return np.array([[float(H[k][l] / (len(problem.classes[k]) * len(problem.classes[l])))
                      for l in range(m)] for k in range(m)])


@given(st.sampled_from([2, 3, 4]), st.integers(3, 8), st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_hessian_matches_central_differences(r, n, seed, blow):
    rnd = random.Random(seed)
    g = random_hypergraph(rnd, max(n, r), r=r)
    if blow:
        g = blowup(g, [rnd.randint(1, 3) for _ in range(g.n)])
    problem = _BlockProblem(g)
    y = np.array(random_simplex_point(rnd, problem.m))
    H = problem.hessian(y)
    assert H == pytest.approx(_exact_block_hessian(g, problem, y), rel=0, abs=1e-13)
    h = 1e-6
    for k in range(problem.m):
        e = np.zeros(problem.m)
        e[k] = h
        fd = (problem.value_grad(y + e)[1] - problem.value_grad(y - e)[1]) / (2 * h)
        assert H[:, k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# projected gradient ascent


def _lockstep_pga(problem, Y0, iters, tol, masks=None):
    """The lockstep line search that _pga replaced, kept as its oracle.
    Every outer iteration re-steps, re-projects and re-evaluates all rows
    until no row is still halving, so a row that already passed repeats
    its trial with the same step size.  Rows with a 0/1 support ``masks``
    row keep the masked-out coordinates at zero: the support enumeration
    that maximize once ran, kept as an oracle for its values."""
    outY = Y0.astype(float).copy()
    if masks is not None:
        outY = outY * masks
        s = outY.sum(axis=1, keepdims=True)
        s[s == 0] = 1.0
        outY /= s
    outF = problem.value_grad(outY)[0]
    idx = np.arange(len(outY))
    Y = outY.copy()
    F = outF.copy()
    M = masks.copy() if masks is not None else None
    eta = np.full(len(Y), 0.25)
    stall = np.zeros(len(Y), dtype=int)
    for _ in range(iters):
        G = problem.value_grad(Y)[1]
        if M is not None:
            G = G * M
        cand = Y
        fc = F
        for _half in range(22):
            step = Y + eta[:, None] * G
            if M is not None:
                step = np.where(M > 0, step, -1e30)
            cand = lagrangian._project_rows(step)
            fc = problem.value_grad(cand)[0]
            bad = fc < F
            if not bad.any():
                break
            eta = np.where(bad, eta * 0.5, eta)
        accept = fc >= F
        gain = np.where(accept, fc - F, 0.0)
        Y = np.where(accept[:, None], cand, Y)
        F = np.where(accept, fc, F)
        eta = np.where(accept, np.minimum(eta * 1.25, 1e3), eta)
        stall = np.where(gain < tol, stall + 1, 0)
        done = (stall >= 5) | ~accept
        if done.any():
            outY[idx[done]] = Y[done]
            outF[idx[done]] = F[done]
            keep = ~done
            idx, Y, F, eta, stall = idx[keep], Y[keep], F[keep], eta[keep], stall[keep]
            if M is not None:
                M = M[keep]
            if not len(idx):
                break
    if len(idx):
        outY[idx] = Y
        outF[idx] = F
    return outY, outF


# The sums are running sums, which add the terms strictly in order: numpy's
# sum adds pairwise along a contiguous axis but in order along a strided
# one, and the layout of the gathered products changes with the number of
# rows, so a plain sum too can round a row by the batch it is in.


def _rowwise_value_grad(problem, Y):
    P = Y[..., problem._monos].prod(axis=-1)
    G = np.cumsum(P[..., None, :] * problem._coefs.T, axis=-1)[..., -1]
    return np.cumsum(G * Y, axis=-1)[..., -1] / problem.degree, G


class _RowwiseProblem:
    """A graph's block problem with value and gradient reduced row by row,
    so that no row's numbers depend on the rest of the batch (the matrix
    products of _BlockProblem may round by the batch's layout).  Rows whose
    first weight exceeds ``descend_above`` get the negated gradient (and
    the true value): each of their trial steps loses value, so they use up
    their 22 halvings unmoved.  Evaluations are capped, so a line search
    that never gives up fails instead of hanging."""

    def __init__(self, g, descend_above=None, max_values=20_000):
        self.block = _BlockProblem(g)
        self.m = self.block.m
        self.descend_above = descend_above
        self.values_left = max_values

    def value_grad(self, Y):
        self.values_left -= 1
        assert self.values_left >= 0, "the line search did not terminate"
        F, G = _rowwise_value_grad(self.block, Y)
        if self.descend_above is not None:
            G = np.where(Y[..., :1] > self.descend_above, -G, G)
        return F, G


def _count_projections(monkeypatch, cap=50_000):
    """Count _project_rows calls; more than ``cap`` of them between resets
    fail instead of hanging on a line search that never gives up."""
    calls = [0]
    project = lagrangian._project_rows

    def counting(V):
        calls[0] += 1
        assert calls[0] <= cap, "the line search did not terminate"
        return project(V)

    monkeypatch.setattr(lagrangian, "_project_rows", counting)
    return calls


@given(st.sampled_from([2, 3]), st.integers(3, 8), st.integers(0, 10**6),
       st.sampled_from([0, 1, 3, 400]), st.sampled_from([1e-14, 1e-6]), st.booleans())
@settings(max_examples=80, deadline=None)
def test_pga_matches_lockstep_oracle(r, n, seed, iters, tol, descend):
    rnd = random.Random(seed)
    g = random_hypergraph(rnd, max(n, r), r=r)
    if not g.edges:
        return
    problem = _RowwiseProblem(g, descend_above=0.5 if descend else None)
    m = problem.m
    rng = np.random.default_rng(seed)
    Y0 = np.vstack([np.full((1, m), 1.0 / m), np.eye(m), lagrangian._dirichlet(rng, 24, m)])
    Y, F = lagrangian._pga(problem, Y0, iters, tol)
    Yo, Fo = _lockstep_pga(problem, Y0, iters, tol)
    assert Y.tobytes() == Yo.tobytes()
    assert F.tobytes() == Fo.tobytes()


def test_pga_retires_a_row_after_22_failed_halvings(monkeypatch):
    g = random_hypergraph(random.Random(4), 8)
    problem = _RowwiseProblem(g, descend_above=0.5)
    m = problem.m
    rng = np.random.default_rng(4)
    Y0 = lagrangian._dirichlet(rng, 12, m)
    Y0[:6] = 0.6 * np.eye(m)[0] + 0.4 * Y0[:6]        # descending rows
    Y0[6:, 0] = 0.0
    Y0[6:] /= Y0[6:].sum(axis=1, keepdims=True)     # ascending rows
    calls = _count_projections(monkeypatch)
    Y, F = lagrangian._pga(problem, Y0[:6], 400, 1e-14)
    assert calls[0] == 22                           # one trial per halving
    assert Y.tobytes() == Y0[:6].tobytes()          # retired unmoved
    assert F.tobytes() == problem.value_grad(Y0[:6])[0].tobytes()
    Y, F = lagrangian._pga(problem, Y0, 400, 1e-14)
    Yo, Fo = _lockstep_pga(problem, Y0, 400, 1e-14)
    assert Y.tobytes() == Yo.tobytes() and F.tobytes() == Fo.tobytes()
    assert Y[:6].tobytes() == Y0[:6].tobytes()
    assert (F[6:] > problem.value_grad(Y0[6:])[0]).all()


def test_pga_stall_counts_only_consecutive_small_gains():
    # with a coarse tolerance the rows alternate small and large gains, so
    # a stall count that is not reset by a real gain retires them early
    rnd = random.Random(21)
    for _ in range(6):
        g = random_hypergraph(rnd, 9)
        problem = _RowwiseProblem(g)
        Y0 = lagrangian._dirichlet(np.random.default_rng(21), 32, problem.m)
        for tol in (1e-4, 1e-6, 1e-8):
            Y, F = lagrangian._pga(problem, Y0, 400, tol)
            Yo, Fo = _lockstep_pga(problem, Y0, 400, tol)
            assert Y.tobytes() == Yo.tobytes() and F.tobytes() == Fo.tobytes()


def test_pga_passes_never_exceed_the_lockstep_oracle(monkeypatch):
    # maximize with row-by-row kernels runs the same rows through either
    # line search, so results must agree bit for bit; the per-row search
    # makes one pass per step of its longest row, the lockstep search one
    # per trial of the batch's slowest halving in every iteration
    monkeypatch.setattr(_BlockProblem, "value_grad", _rowwise_value_grad)
    calls = _count_projections(monkeypatch)
    rnd = random.Random(961)
    graphs = [random_hypergraph(rnd, 6 + i % 5) for i in range(10)]
    graphs += [random_hypergraph(rnd, 5 + i, r=2) for i in range(4)]
    pga = lagrangian._pga
    totals = {"per-row": 0, "lockstep": 0}
    for g in graphs:
        passes = {}
        results = {}
        for name, impl in (("per-row", pga), ("lockstep", _lockstep_pga)):
            monkeypatch.setattr(lagrangian, "_pga", impl)
            calls[0] = 0
            results[name] = maximize(g)
            passes[name] = calls[0]
            totals[name] += calls[0]
        assert results["per-row"] == results["lockstep"]
        assert passes["per-row"] <= passes["lockstep"], g
    assert totals["lockstep"] >= 1.5 * totals["per-row"], totals


def test_maximize_matches_the_support_enumeration_oracle():
    # maximize once also ran the 2^m - 1 support-restricted rows, each from
    # the uniform point of its support, on reduced problems with m <= 8;
    # the unmasked batch must reach every value those rows reach
    rnd = random.Random(14)
    graphs = []
    while len(graphs) < 150:
        r = rnd.choice([2, 3])
        g = random_hypergraph(rnd, rnd.randint(r + 1, 9), r=r)
        if g.edges and 2 <= _BlockProblem(g).m <= 7:
            graphs.append(g)
    worst = -math.inf
    for g in graphs:
        problem = _BlockProblem(g)
        m = problem.m
        masks = np.array([[(bits >> k) & 1 for k in range(m)] for bits in range(1, 2 ** m)],
                         dtype=float)
        Y0 = masks / masks.sum(axis=1, keepdims=True)
        _, F = _lockstep_pga(problem, Y0, lagrangian._ASCENT_STEPS, 1e-14, masks)
        worst = max(worst, float(F.max()) - maximize(g).value)
    assert worst <= 1e-12, worst


def test_closed_forms():
    assert closed_form(complete(6)).value == pytest.approx(5 / 54, abs=1e-15)
    assert closed_form(complete(5, 4)).value == 5 / 5**4
    k6m = closed_form(complete_minus(6)).value
    assert k6m == pytest.approx((4 * math.sqrt(6) - 9) / 9, abs=1e-13)
    assert k6m < 0.0887
    k8m = closed_form(complete_minus(8)).value
    a = (4 - math.sqrt(13)) / 3
    assert k8m == pytest.approx((5 * a**3 - 20 * a**2 + 5 * a) / 3, abs=1e-13)
    assert k8m < 0.1077
    # graphs with no closed form, an edgeless one included
    for g in (complete_minus(5), complete_minus(6, 4), linear_path(3), named("F5"),
              new(3, 7, complete(6).edges), Hypergraph(3, 2, ()), Hypergraph(3, 0, ())):
        with pytest.raises(ValueError, match="no closed form"):
            closed_form(g)


def test_near_complete_closed_forms_are_rounded_once():
    # another expression for each value, evaluated in 50 digits and rounded once
    with localcontext(prec=50):
        a = (3 - Decimal(6).sqrt()) / 3
        k6m = a**3 - 3 * a**2 + a
        a = (4 - Decimal(13).sqrt()) / 3
        k8m = (5 * a**3 - 20 * a**2 + 5 * a) / 3
    assert closed_form(complete_minus(6)).value == float(k6m)
    assert closed_form(complete_minus(8)).value == float(k8m)
    assert closed_form(complete_minus(4)).value == 4 / 81


def test_closed_form_recognizes_every_copy():
    swapped = relabel(complete_minus(6), {1: 6, 6: 1, 2: 2, 3: 3, 4: 4, 5: 5})
    assert swapped != complete_minus(6)
    assert closed_form(swapped) == closed_form(complete_minus(6))
    rnd = random.Random(8)
    for _ in range(5):
        missing = tuple(sorted(rnd.sample(range(1, 9), 3)))
        g = new(3, 8, [e for e in complete(8).edges if e != missing])
        assert closed_form(g) == closed_form(complete_minus(8))
    perm = list(range(1, 8))
    rnd.shuffle(perm)
    assert closed_form(relabel(complete(7), dict(zip(range(1, 8), perm)))) == closed_form(complete(7))
    # the same edge count on more vertices is not a copy
    with pytest.raises(ValueError, match="no closed form"):
        closed_form(new(3, 7, complete_minus(6).edges))


def test_closed_form_blocks_reproduce_values():
    for g in (complete_minus(4), complete_minus(6), complete_minus(8), complete(7), complete(5, 2)):
        cf = closed_form(g)
        x = [w for size, w in cf.blocks for _ in range(size)]
        assert evaluate(g, x) == pytest.approx(cf.value, abs=1e-12)


# ---------------------------------------------------------------------------
# quadratic case


def test_motzkin_straus_examples():
    triangle = new(2, 3, [(1, 2), (1, 3), (2, 3)])
    assert motzkin_straus(triangle) == (pytest.approx(1 / 3), 3)
    assert motzkin_straus(new(2, 2, [(1, 2)])) == (pytest.approx(1 / 4), 2)
    assert motzkin_straus(Hypergraph(2, 5, ())) == (0.0, 1)
    with pytest.raises(ValueError):
        motzkin_straus(complete(4, 3))


@given(st.integers(3, 10), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_motzkin_straus_matches_optimizer(n, seed):
    rnd = random.Random(seed)
    pool = list(itertools.combinations(range(1, n + 1), 2))
    edges = [e for e in pool if rnd.random() < 0.5]
    g = new(2, n, edges)
    lam, _ = motzkin_straus(g)
    assert maximize(g).value == pytest.approx(lam, abs=1e-7)


# ---------------------------------------------------------------------------
# density


def test_is_dense_examples():
    assert is_dense(complete(5, 3))
    assert not is_dense(new(3, 5, complete(4, 3).edges))  # isolated vertex
    assert not is_dense(Hypergraph(3, 3, ()))


def test_densify_matching():
    sub, res = densify(matching(2, 3))
    assert len(sub.edges) == 1 and sub.n == 3
    assert res.value == pytest.approx(1 / 27, abs=1e-9)


def test_densify_drops_isolated_vertex():
    g = new(3, 7, complete(6, 3).edges)
    sub, res = densify(g)
    assert sub == complete(6, 3)
    assert res.value == pytest.approx(5 / 54, abs=1e-9)


# ---------------------------------------------------------------------------
# proved upper bounds


def _offered_targets(value):
    # at the value a proof must fail, so the bound is refined to the
    # budget; above it a proof may succeed, and the bound must still hold
    return (value, value * (1 + 1e-3), value * 1.05)


@given(st.sampled_from([2, 3]), st.integers(3, 8), st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_upper_bound_is_above_the_maximize_value(r, n, seed, blow):
    rnd = random.Random(seed)
    g = random_hypergraph(rnd, max(n, r), r=r)
    if blow:
        g = blowup(g, [rnd.randint(1, 3) for _ in range(g.n)])
    value = maximize(g).value
    for target in _offered_targets(value):
        assert upper_bound(g, target) >= value


def _closed_form_graphs():
    for t in range(3, 10):
        yield complete(t, 3), closed_form(complete(t, 3)).value
    for t in range(2, 7):
        yield complete(t, 2), closed_form(complete(t, 2)).value
    for t in (4, 6, 8):
        lam = closed_form(complete_minus(t)).value
        yield complete_minus(t), lam
        # as a density search meets it, with an isolated vertex
        yield new(3, t + 1, complete_minus(t).edges), lam


def test_upper_bound_never_proves_a_closed_form_below_itself():
    for g, lam in _closed_form_graphs():
        for target in (lam, lam - 1e-9):
            assert upper_bound(g, target) >= lam, (g, target)


def _typed_graph(rnd, r):
    """A graph on at most three parts whose edges are every r-set of each
    chosen multiset of parts, so the parts are weight-exchangeable and the
    block form has at most three columns.  Returns the graph, the part
    sizes and, per chosen multiset, its edge count."""
    sizes = [rnd.randint(1, 3) for _ in range(rnd.randint(1, 3))]
    sizes[0] = max(sizes[0], r - sum(sizes[1:]))  # room for one edge
    part = [k for k, s in enumerate(sizes) for _ in range(s)]
    types = [c for c in itertools.combinations_with_replacement(range(len(sizes)), r)
             if all(c.count(k) <= sizes[k] for k in c)]
    chosen = {c for c in types if rnd.random() < 0.6} or {types[0]}
    edges = [e for e in itertools.combinations(range(1, len(part) + 1), r)
             if tuple(sorted(part[v - 1] for v in e)) in chosen]
    counts = {c: sum(1 for e in edges if tuple(sorted(part[v - 1] for v in e)) == c)
              for c in chosen}
    return new(r, len(part), edges), sizes, counts


def _grid_max(sizes, counts, denom=60):
    """The exact maximum of the edge polynomial over the block weights
    whose coordinates are multiples of 1/denom, part k's weight spread
    evenly over its vertices."""
    best = Fraction(0)
    for cut in itertools.combinations(range(denom + len(sizes) - 1), len(sizes) - 1):
        bounds = (-1,) + cut + (denom + len(sizes) - 1,)
        y = [Fraction(bounds[k + 1] - bounds[k] - 1, denom) for k in range(len(sizes))]
        w = [y[k] / sizes[k] for k in range(len(sizes))]
        best = max(best, sum(cnt * math.prod(w[k] for k in c) for c, cnt in counts.items()))
    return best


@given(st.sampled_from([2, 3]), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_upper_bound_is_above_the_grid_maximum_on_three_blocks(r, seed):
    g, sizes, counts = _typed_graph(random.Random(seed), r)
    assert _BlockProblem(g).m <= 3
    grid = _grid_max(sizes, counts)
    assert grid > 0
    for target in (grid, grid * Fraction(1001, 1000)):
        assert upper_bound(g, float(target)) >= grid


def test_upper_bound_screens_below_a_higher_target():
    # K_6^- on seven vertices lies below 5/54 by about 0.0039; the proof
    # must find that within the budget, and K_6 itself must never pass
    k6_minus = new(3, 7, complete_minus(6).edges)
    assert upper_bound(k6_minus, 5 / 54) < 5 / 54
    assert upper_bound(new(3, 7, complete(6, 3).edges), 5 / 54) >= 5 / 54
    assert upper_bound(new(3, 4, ()), 0.1) == 0.0


# ---------------------------------------------------------------------------
# invariants


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_compression_monotone_under_ordered_weights(seed):
    rnd = random.Random(seed)
    n = rnd.randint(4, 8)
    g = random_hypergraph(rnd, n)
    x = random_simplex_point(rnd, n)
    i = rnd.randint(1, n - 1)
    j = rnd.randint(i + 1, n)
    if x[i - 1] < x[j - 1]:
        x[i - 1], x[j - 1] = x[j - 1], x[i - 1]
    assert evaluate(compress(g, i, j), x) >= evaluate(g, x) - 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=12, deadline=None)
def test_subgraph_monotonicity(seed):
    rnd = random.Random(seed)
    n = rnd.randint(4, 7)
    g = random_hypergraph(rnd, n)
    sub_edges = [e for e in g.edges if rnd.random() < 0.6]
    sub = Hypergraph(3, n, tuple(sub_edges))
    assert maximize(sub).value <= maximize(g).value + 1e-9


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_pair_averaging_never_decreases(seed):
    # for weight-exchangeable i, j, replacing both weights by their mean
    # cannot lower the polynomial
    rnd = random.Random(seed)
    n = rnd.randint(4, 7)
    g = random_hypergraph(rnd, n)
    part = equivalence_classes(g)
    pair = next((c[:2] for c in part.classes if len(c) >= 2), None)
    if pair is None:
        return
    i, j = pair
    x = random_simplex_point(rnd, n)
    y = list(x)
    y[i - 1] = y[j - 1] = (x[i - 1] + x[j - 1]) / 2
    assert evaluate(g, y) >= evaluate(g, x) - 1e-12


@given(st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_blowup_bound(seed):
    rnd = random.Random(seed)
    base_n = rnd.randint(3, 5)
    pattern = random_hypergraph(rnd, base_n)
    sizes = [rnd.randint(0, 3) for _ in range(base_n)]
    b = blowup(pattern, sizes)
    if b.n == 0:
        return
    assert len(b.edges) <= maximize(pattern).value * b.n**3 + 1e-9


def _clique_plus_extras(rnd, order):
    # a graph with a clique of the given order and at most
    # C(order-1, 2) further edges keeps the clique's optimum
    base = complete(order, 3)
    n = order + rnd.randint(1, 2)
    pool = [e for e in itertools.combinations(range(1, n + 1), 3)
            if e not in base.edge_set()]
    rnd.shuffle(pool)
    cap = comb(order - 1, 2)
    extras = pool[: rnd.randint(0, cap)]
    return new(3, n, list(base.edges) + extras), order


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_clique_dominates_sparse_extras(seed):
    rnd = random.Random(seed)
    g, order = _clique_plus_extras(rnd, rnd.choice([4, 5]))
    assert maximize(g).value == pytest.approx(comb(order, 3) / order**3, abs=1e-7)


def test_weight_vector_validation():
    WeightVector((0.5, 0.5))
    with pytest.raises(ValueError):
        WeightVector((0.5, 0.6))
    with pytest.raises(ValueError):
        WeightVector((-0.1, 1.1))


@pytest.mark.parametrize("setting, bad", [
    ("seed", -5), ("seed", True), ("seed", 1.0), ("seed", "3"), ("seed", None),
    ("restarts", -1), ("restarts", False), ("restarts", "8"),
    ("kkt_tol", math.nan), ("kkt_tol", math.inf), ("kkt_tol", -1e-8), ("kkt_tol", True),
])
def test_optimizer_config_refuses_settings_it_cannot_use(setting, bad):
    # the seed is the optimizer's one setting: one it cannot draw from is
    # refused by name, before the edgeless shortcut too; the start count
    # and the tolerance are constants, so no call takes them
    for g in (complete(4, 3), Hypergraph(3, 2, ())):
        if setting == "seed":
            with pytest.raises(ValueError, match="seed"):
                maximize(g, bad)
        else:
            with pytest.raises(TypeError, match=setting):
                maximize(g, **{setting: bad})


def test_kkt_residual_counts_partials_off_the_support(monkeypatch):
    # on the path 1-2-3, x = (1/2, 0, 1/2) has every partial on its support
    # equal to 2 * 0 = 2λ, but vertex 2's partial is 1: stationary on the
    # support, not a maximum on the simplex.  A tolerance of 0.5 lets no
    # certification start (they reach 1/4) beat it, so only the residual
    # can refuse it.
    def polish(problem, y):
        return np.array([1.0 if 1 in c else 0.0 for c in problem.classes])

    monkeypatch.setattr(lagrangian, "_newton_polish", polish)
    monkeypatch.setattr(lagrangian, "_KKT_TOL", 0.5)
    res = maximize(new(2, 3, [(1, 2), (2, 3)]))
    assert res.support == (1, 3) and res.value == 0.0
    assert res.kkt_residual == 1.0
    assert not res.certified


def _numpy_residual(g, x, on):
    """The first-order residual as ``maximize`` computed it in numpy before
    ``_kkt``: the reference the float ``_kkt`` must match bit for bit."""
    excess = np.array(gradient(g, x)) - g.r * float(evaluate(g, x))
    return float(max(np.abs(excess[on]).max(initial=0.0), excess[~on].max(initial=0.0)))


def test_float_kkt_residual_matches_the_numpy_expression(monkeypatch):
    rnd = random.Random(31)
    for _ in range(60):
        r = rnd.choice((2, 3, 4))
        n = rnd.randint(r, 9)
        g = random_hypergraph(rnd, n, r=r)
        x = np.array(random_simplex_point(rnd, n))
        x[rnd.sample(range(n), rnd.randint(0, n - 1))] = 0.0
        x = x / x.sum()
        on = x > 1e-10
        value, residual = lagrangian._kkt(g, x.tolist(), on)
        assert value == evaluate(g, x.tolist())
        assert residual.hex() == _numpy_residual(g, x.tolist(), on).hex(), (g, x)
    # and at every point maximize certifies on one lambda-corpus round
    kkt = lagrangian._kkt
    matched = []

    def recording(g, ws, on):
        out = kkt(g, ws, on)
        if not isinstance(ws[0], Fraction):  # skip the snap's exact calls
            matched.append(out[1].hex() == _numpy_residual(g, ws, np.asarray(on)).hex())
        return out

    monkeypatch.setattr(lagrangian, "_kkt", recording)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    graphs = [g for _, _, g in importlib.import_module("workloads").LambdaCorpus().build(961)["graphs"]]
    for g in graphs:
        maximize(g)
    assert len(matched) == sum(1 for g in graphs if g.edges) and all(matched)


def test_optimum_json_shape():
    res = maximize(complete(4, 3))
    payload = res.to_json()
    for key in ("value", "weights", "support", "kkt_residual", "certified", "seed"):
        assert key in payload
