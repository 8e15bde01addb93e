"""A slightly noisy device gives a slightly worse report, never an exception.

Devices are ideal realizations of seeded coefficients, with Gaussian noise
on the state and each measurement rotated by ``exp(i eps H)``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import perturbed_realization, random_coefficients
from selftesting import build_criterion_ops, extraction_report, ideal_realization
from selftesting.extraction import NORM_BUDGET
from test_extraction import _full_image_residuals

#: Largest ``(1 - F) / eps^2`` over seeds 0-999 at eps 1e-6, 3e-5 and 1e-3
#: (29.4, 67.7, 93.5 and 293.3), rounded up.
INFIDELITY_SLOPE = {2: 30.0, 3: 70.0, 4: 95.0, 8: 300.0}

dims = st.sampled_from(sorted(INFIDELITY_SLOPE))
seeds = st.integers(0, 999)


def _noisy_device(d, eps, seed):
    sc = random_coefficients(d, seed=seed)
    return sc, perturbed_realization(ideal_realization(sc), eps, seed)


@given(d=dims, eps=st.floats(0.0, 0.3), seed=seeds)
def test_noisy_device_report_is_bounded(d, eps, seed):
    sc, r = _noisy_device(d, eps, seed)
    rep = extraction_report(r, sc)
    assert 0.0 <= rep.product_overlap <= rep.fidelity <= 1.0
    assert abs(rep.output_norm - 1.0) <= NORM_BUDGET
    assert rep.ladder_rounding >= 0.0
    got = [v.residual for v in rep.measurement_residuals]
    want = _full_image_residuals(build_criterion_ops(r, sc), r, sc)
    assert np.max(np.abs(got - want)) <= 1e-12


@given(d=dims, eps=st.floats(1e-6, 1e-3), seed=seeds)
def test_infidelity_is_quadratic_in_noise(d, eps, seed):
    sc, r = _noisy_device(d, eps, seed)
    rep = extraction_report(r, sc)
    assert 1.0 - rep.fidelity <= INFIDELITY_SLOPE[d] * eps**2


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_probe_grid_keeps_norm(d):
    # the parent's Fourier-built ladder raised on 11 of these 24 cases
    sc = random_coefficients(d, seed=100 + d)
    for eps in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
        rep = extraction_report(perturbed_realization(ideal_realization(sc), eps, seed=1), sc)
        assert abs(rep.output_norm - 1.0) <= 1e-12
