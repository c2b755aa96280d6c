"""GS-q and GS-r, scored in place, against the expressions they replace.

select_gsq and select_gsr (through prox_step_lengths and the regularizer's
prox_vec and change_vec) build their scores in reused buffers. On random
L1, elastic-net and box states, with alpha at 0, at -0.0, at the box's
bounds and inside, and with and without a NaN in the gradient, they must
return the coordinate and the score bits of the plain expressions below,
and prox_step_lengths the same gamma bits.
"""

import numpy as np
import pytest

from conftest import random_problem, random_state
from greedycd.objectives import full_grad
from greedycd.selection import prox_step_lengths, select_gsq, select_gsr


def plain_prox_vec(reg, x, h):
    if reg.kind == "box":
        return np.clip(x, 0.0, 1.0)
    return np.sign(x) * np.maximum(np.abs(x) - reg.lam / h, 0.0)


def plain_change_vec(reg, alpha, gamma):
    if reg.kind == "box":
        return 0.0
    return reg.lam * (np.abs(alpha + gamma) - np.abs(alpha))


def plain_argmax_abs(values):
    a = np.abs(values)
    j = int(np.argmax(a))
    return j, float(a[j])


def plain_gamma(p, s, grad):
    L = p.smoothness
    return plain_prox_vec(p.reg, s.alpha - grad / L, L) - s.alpha


def plain_gsr(p, s, grad):
    return plain_argmax_abs(plain_gamma(p, s, grad))


def plain_gsq(p, s, grad):
    gamma = plain_gamma(p, s, grad)
    L = p.smoothness
    chi = gamma * grad + 0.5 * L * gamma**2 \
        + plain_change_vec(p.reg, s.alpha, gamma)
    return plain_argmax_abs(chi)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64).tolist()


def state_and_grad(kind, seed, nan):
    """A state with zeros, negative zeros, bound and interior entries, and
    its gradient with signed zeros and, on request, one NaN."""
    rng = np.random.default_rng(seed)
    p = random_problem(kind, rng, n=40, d=12)
    s = random_state(p, rng, box=(kind == "svm"))
    grad = full_grad(p, s)
    s.alpha[rng.choice(p.n, 4, replace=False)] = -0.0
    grad[rng.choice(p.n, 3, replace=False)] = 0.0
    grad[rng.choice(p.n, 3, replace=False)] = -0.0
    if kind == "svm":
        # interior entries one step from a bound, both ways
        at = rng.choice(np.flatnonzero((s.alpha > 0) & (s.alpha < 1)), 2,
                        replace=False)
        s.alpha[at] = [1e-300, 1.0 - 2.0**-53]
    if nan:
        grad[int(rng.integers(p.n))] = np.nan
    return p, s, grad


@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", ["lasso", "elasticnet", "svm"])
def test_scores_are_the_plain_expressions_bits(kind, seed, nan):
    p, s, grad = state_and_grad(kind, seed, nan)
    alpha, g = s.alpha.copy(), grad.copy()
    assert bits(prox_step_lengths(p, s, grad=grad)) == \
        bits(plain_gamma(p, s, grad))
    for select, plain in ((select_gsq, plain_gsq), (select_gsr, plain_gsr)):
        out = select(p, s, grad=grad)
        j, m = plain(p, s, grad)
        assert (out.coord, bits(out.score)) == (j, bits(m))
    # the inputs are left as they were
    assert bits(s.alpha) == bits(alpha) and bits(grad) == bits(g)


@pytest.mark.parametrize("kind", ["lasso", "svm"])
def test_prox_vec_writes_to_out(kind):
    p, s, grad = state_and_grad(kind, 0, False)
    x = s.alpha - grad / p.smoothness
    want = plain_prox_vec(p.reg, x, p.smoothness)
    fresh = p.reg.prox_vec(x.copy(), p.smoothness)
    inplace = x.copy()
    assert p.reg.prox_vec(inplace, p.smoothness, out=inplace) is inplace
    # equal as numbers; a clipped -0.0 may come back as 0.0
    np.testing.assert_array_equal(fresh, want)
    np.testing.assert_array_equal(inplace, want)
