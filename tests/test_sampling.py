"""The draw layout of random Clark bases: one decoder, one block of attempts, no failed draw.

``clark.clark_draws`` runs the Clark chain (``clark.clark_rows``) on one block of
attempts and ``oracles.random_clark_basis`` is its batch of 1; both must consume
the generator exactly as the scalar draws ``oracles.random_blaschke`` then
``random_clark_params`` do, attempt by attempt.  No draw misses a check, by the
bounds that ``clark_draws`` states; a row that did would be raised, not skipped.
"""

import numpy as np
import pytest

from model_space_lab import clark
from model_space_lab.blaschke import LevelSetError, products_at
from model_space_lab.config import BASIS_TOL
from model_space_lab.modelspace import BasisError, basis_residuals
from model_space_lab.clark import CLARK_DRAW, clark_draws, decode_clark_draws, stdlib_uniforms
from model_space_lab.repcheck import counterexample_family, counterexample_report

from oracles import random_blaschke, random_clark_basis, random_clark_params


def test_decoder_matches_scalar_draws():
    rows, scalar = np.random.default_rng(3), np.random.default_rng(3)
    zeros, constants, t, alpha = decode_clark_draws(rows.random((6, CLARK_DRAW)))
    for i in range(6):
        b, params = random_blaschke(scalar), random_clark_params(scalar)
        np.testing.assert_allclose(zeros[i], b.zeros, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            [constants[i], t[i], alpha[i]], [b.front_constant, params.t, params.alpha],
            rtol=0, atol=1e-15,
        )
    assert rows.bit_generator.state == scalar.bit_generator.state


@pytest.fixture
def forced_failures(monkeypatch):
    """Make the attempts with the given indices, counted over all draws, fail their level set.

    ``clark.level_sets`` is wrapped: it counts the rows it is given, and the first
    failing attempt among them raises a ``LevelSetError`` naming it.
    """

    level_sets = clark.level_sets  # the original: the patch below replaces the module's name

    def force(failing):
        attempts = [0]

        def level_sets_with_failures(s, omega):
            etas = level_sets(s, omega)
            first = attempts[0]
            attempts[0] += len(omega)
            for attempt in range(first, attempts[0]):
                if attempt in failing:
                    raise LevelSetError("forced failure of attempt %d" % attempt)
            return etas

        monkeypatch.setattr(clark, "level_sets", level_sets_with_failures)
        return attempts

    return force


@pytest.mark.parametrize("seed", [0, 11])
def test_batch_equals_one_basis_at_a_time(forced_failures, seed):
    k = 12
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    attempts = forced_failures(set())  # counts the attempts only
    batch = clark_draws(a, k)
    batch_attempts = attempts[0]
    attempts[0] = 0
    singles = [random_clark_basis(b) for _ in range(k)]
    assert attempts[0] == batch_attempts == k
    assert a.bit_generator.state == b.bit_generator.state
    np.testing.assert_allclose(batch.etas, [cb.etas for cb in singles], rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        batch.phases / batch.norms, [cb.phases / cb.norms for cb in singles], rtol=0, atol=1e-13
    )


def test_clark_draws_cannot_fail():
    # 20,000 seeded draws, half from numpy and half from the stdlib stream of the
    # sweep: no row misses a check (clark_draws would raise), and both margins stay
    # above the bounds that clark_draws derives from ZERO_RADIUS and ANCHOR_RADIUS.
    streams = [np.random.default_rng(seed) for seed in range(10)]
    streams += [stdlib_uniforms(seed) for seed in range(10)]
    denominators, chords = [], []
    for rng in streams:
        rows = clark_draws(rng, 1000)
        bt = products_at(rows.zeros, rows.constants, rows.t[:, None])[:, 0]
        denominators.append(np.abs(1.0 + np.conj(bt) * rows.alpha).min())
        chords.append(np.abs(rows.etas - np.roll(rows.etas, 1, axis=1)).min())
    print("clark draws: smallest target denominator %.3f, smallest level-set chord %.3f"
          % (min(denominators), min(chords)))
    assert min(denominators) >= 0.114 and min(chords) >= 0.169


@pytest.mark.parametrize("failure", ["gram", "conjugation", "level-set"])
def test_basis_failure_is_raised_not_skipped(monkeypatch, forced_failures, failure):
    # A row that misses a check -- a Gram or conjugation residual at BASIS_TOL, or
    # its level set -- raises the error of the first such row: it ends the draws
    # and the sweep, and no attempt is retried.
    def missing(x, j):
        residuals = basis_residuals(x, j)
        residuals[0 if failure == "gram" else 1][len(x) // 2] = BASIS_TOL
        return residuals

    level_set = failure == "level-set"
    error, match = (LevelSetError, "attempt 2") if level_set else (BasisError, None)
    if not level_set:
        monkeypatch.setattr(clark, "basis_residuals", missing)
    runs = (lambda: clark_draws(np.random.default_rng(0), 5),
            lambda: counterexample_report(counterexample_family(1, 0.5, 1.0, -1.0), seed=0))
    for run in runs:
        if level_set:
            forced_failures({2, 3})  # attempts counted from this call on
        with pytest.raises(error, match=match):
            run()
