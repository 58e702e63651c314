"""Acceptance suite: ten headline guarantees, one pass/fail line each.

Each test is self-contained, runs at full scale with fixed seeds, and
asserts the stated tolerance.  Timing budgets are asserted where the
guarantee includes one.  Run with ``pytest -v tests/test_acceptance.py``
to get one line per criterion.
"""

import json
import re
import time

import numpy as np
import pytest

from berglab import (
    BasisSpec,
    MatrixKernelSample,
    ball_indicator_symbol,
    berezin_decay_profile,
    berezin_injectivity_probe,
    bidisc_space,
    build_covering,
    build_rule,
    cli,
    constant_symbol,
    conjugate_operator,
    disc_space,
    discretized_norm,
    essential_norm_estimate,
    fock_space,
    involution,
    kernel_eval,
    kernel_norm,
    localization_error,
    metric,
    normalized_pairing,
    poly_symbol,
    pullback_symbol,
    random_coeff_function,
    random_polynomial,
    rank_one,
    rank_one_toeplitz_sum,
    rudin_forelli,
    schur_test,
    toeplitz_matrix,
    translation_certificate,
    translation_matrix,
)
from berglab.coeffs import eval_coeffs
from conftest import certified_projector, rule_kernel_power_integrals, sample_points, sup_norm


def test_criterion_01_kernel_axioms_and_reproducing_property():
    t0 = time.monotonic()
    probes = {
        "bergman_disc": [0.0] + [r * np.exp(1j * a) for r in (0.3, 0.5, 0.72)
                                 for a in (0.0, 2.3)],
        "fock": [0.0, 1.0, 2.0],
    }
    shells = {"bergman_disc": [0.5, 0.65, 0.8, 0.9], "fock": [0.8, 1.4, 2.0, 2.6]}
    for space in (disc_space(0.0, d=4), fock_space(d=4)):
        basis = BasisSpec(space, 32)
        rule = build_rule(space)
        # probability measure and orthonormal coefficient functions
        assert abs(rule.sigma_weights.sum() - 1.0) < 1e-12
        from berglab import scalar_basis_matrix
        B = scalar_basis_matrix(basis, rule.nodes)  # (n_scalar, n_nodes)
        gram = (B * rule.sigma_weights[None, :]) @ B.conj().T
        assert np.linalg.norm(gram - np.eye(basis.n_scalar), 2) < 1e-10
        # reproducing property through the quadrature pairing
        rng = np.random.default_rng(3)
        f = random_coeff_function(basis, rng)
        vals = eval_coeffs(f, rule.nodes)
        for z in probes[space.kind]:
            kz = kernel_eval(space, z, rule.nodes)
            quad = np.sum(rule.sigma_weights[:, None] * vals * np.conj(kz)[:, None],
                          axis=0)
            direct = eval_coeffs(f, [z])[0]
            assert np.max(np.abs(quad - direct)) < 1e-8
        # involution, metric invariance, and the exact pairing identity
        zs = sample_points(space, 1000, seed=1)
        ws = sample_points(space, 1000, seed=2)
        us = sample_points(space, 1000, seed=3)
        for z, w, u in zip(zs, ws, us):
            assert np.max(np.abs(involution(space, z, involution(space, z, w)) - w)) < 1e-12
            assert abs(metric(space, involution(space, u, z), involution(space, u, w))
                       - metric(space, z, w)) < 1e-10
            pairing = normalized_pairing(space, z, w)
            assert abs(abs(pairing) * kernel_norm(space, involution(space, z, w)) - 1.0) < 1e-10
        # normalized pairings die along boundary shells
        decay = [max(abs(normalized_pairing(space, r * np.exp(0.7j), w))
                     for w in (0.0, 0.3)) for r in shells[space.kind]]
        assert all(b < a for a, b in zip(decay, decay[1:]))
    assert time.monotonic() - t0 < 30.0


def test_criterion_02_schur_bound_dominates_discretized_norm():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        nx = int(rng.integers(2, 65))
        ny = int(rng.integers(2, 65))
        sample = MatrixKernelSample(
            rng.uniform(0.0, 1.0, (nx, ny, d, d)),
            rng.uniform(0.1, 1.0, nx),
            rng.uniform(0.1, 1.0, ny),
        )
        res = schur_test(sample, p=2.0)
        assert res["bound"] >= discretized_norm(sample) - 1e-10
    const = MatrixKernelSample(np.full((6, 5, 1, 1), 0.7),
                               np.full(6, 1 / 6), np.full(5, 0.2))
    res = schur_test(const, p=2.0)
    assert res["bound"] == pytest.approx(discretized_norm(const), abs=1e-10)
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_kernel_power_integrals_are_invariant():
    space = disc_space(0.0, d=1)
    grid = [0.0, 0.35, 0.35 * np.exp(2j * np.pi / 3), 0.6, 0.6 * np.exp(2j * np.pi / 3)]
    rep = rudin_forelli(space, grid, 3.0, 3.0)
    assert rep.I[0] == pytest.approx(0.5, abs=1e-6)
    assert np.max(np.abs(rep.ratio - 1.0)) < 1e-6
    # the rule sum at the default and at doubled angular resolution agrees with the exact value
    for angular in (64, 128):
        I, J = rule_kernel_power_integrals(space, build_rule(space, angular_order=angular), grid, 3.0, 3.0)
        assert np.max(np.abs(rep.I - I)) < 1e-6
        assert np.max(np.abs(rep.J - J)) < 1e-6


def test_criterion_04_toeplitz_contraction_and_covariance():
    space = disc_space(0.0, d=2)
    rule = build_rule(space)
    basis12 = BasisSpec(space, 12)
    rng = np.random.default_rng(11)
    for _ in range(200):
        entries = {}
        for i in range(2):
            for k in range(2):
                entries[(i, k)] = {
                    (0, 0): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    (1, 0): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    (0, 1): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                }
        sym = poly_symbol(space, entries)
        T = toeplitz_matrix(basis12, rule, sym)
        assert T.norm() <= sup_norm(sym, rule) + 1e-8
    # shift-symbol matrix element
    scalar = disc_space(0.0, d=1)
    Tw = toeplitz_matrix(BasisSpec(scalar, 8), build_rule(scalar),
                         poly_symbol(scalar, {(0, 0): {(1, 0): 1.0}}))
    assert abs(Tw.mat[1, 0] - np.sqrt(0.5)) < 1e-8
    # covariance under kernel translations on the certified block
    basis32 = BasisSpec(space, 32)
    sym = poly_symbol(space, {(0, 0): {(1, 0): 1.0, (0, 1): 0.25},
                              (1, 1): {(0, 0): 0.5}, (0, 1): {(1, 1): 0.3}})
    T = toeplitz_matrix(basis32, rule, sym)
    for zr in (0.15, 0.3, 0.45, 0.6):
        z = zr * np.exp(0.9j)
        Tz = conjugate_operator(T, z)
        Tp = toeplitz_matrix(basis32, rule, pullback_symbol(sym, z))
        P = certified_projector(basis32, translation_certificate(basis32, z)).mat
        assert np.linalg.norm(P @ (Tz.mat - Tp.mat) @ P, 2) < 1e-6


def test_criterion_05_translation_identities_on_certified_block():
    cases = [
        (disc_space(0.0, d=2), [r * np.exp(0.9j) for r in (0.15, 0.3, 0.45, 0.6)]),
        (fock_space(d=2), [r * np.exp(0.9j) for r in (0.5, 1.0, 1.5, 2.0)]),
    ]
    for space, zs in cases:
        basis = BasisSpec(space, 32)
        I = np.eye(basis.dim)
        for z in zs:
            cert = translation_certificate(basis, z)
            assert cert.certified_modes >= 1
            P = certified_projector(basis, cert).mat
            U = translation_matrix(basis, z).mat
            assert np.linalg.norm(P @ (U.conj().T @ U - I) @ P, 2) < 1e-6
            assert np.linalg.norm(P @ (U @ U - I) @ P, 2) < 1e-6


def test_criterion_06_rank_one_operators_factor_through_toeplitz():
    t0 = time.monotonic()
    space = disc_space(0.0, d=3)
    basis = BasisSpec(space, 24)
    rule = build_rule(space)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        f = random_polynomial(basis, rng, 4)
        g = random_polynomial(basis, rng, 4)
        diff = rank_one(f, g) - rank_one_toeplitz_sum(basis, rule, f, g)
        worst = max(worst, diff.norm())
    assert worst < 1e-6
    assert time.monotonic() - t0 < 120.0


def test_criterion_07_compactness_diagnostics_classify_both_classes():
    space = disc_space(0.0, d=2)
    basis = BasisSpec(space, 24)
    rule = build_rule(space)
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(10):
        parts = []
        for _ in range(2):
            c = 0.3 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            rad = 0.25 + 0.1 * rng.uniform()
            M = np.diag(rng.uniform(0.5, 1.0, 2))
            parts.append(toeplitz_matrix(basis, rule, ball_indicator_symbol(space, c, rad, M)))
        cases.append((parts[0] @ parts[1], True))
    for _ in range(10):
        M = np.diag(rng.uniform(0.5, 1.0, 2))
        cases.append((toeplitz_matrix(basis, rule, constant_symbol(space, M)), False))
    for T, compact in cases:
        assert (essential_norm_estimate(T).estimate <= 0.25) == compact
        assert (berezin_decay_profile(T).final_value <= 0.05) == compact


def test_criterion_08_covering_invariants_and_localization_decay():
    radii = (0.5, 1.0, 2.0, 4.0)
    space = disc_space(0.0, d=2)
    coverings = {r: build_covering(space, r) for r in radii}
    for r, cov in coverings.items():
        # cell_index is a total map node -> cell, so the cells partition the nodes
        assert cov.cell_index.shape[0] == cov.rule.n_nodes
        assert cov.cell_index.min() >= 0 and cov.cell_index.max() < cov.n_cells
        assert (cov.cell_node_counts() > 0).all()
        assert max(cov.cell_diameters()) <= 4.0 * r + 1e-9
        per_node = cov.multiplicity_per_node()
        assert per_node.min() >= 1
        assert per_node.max() == cov.multiplicity
    fock = fock_space(d=2)
    fock_mults = [build_covering(fock, r).multiplicity for r in (1.0, 2.0, 4.0)]
    assert fock_mults == [4, 4, 4]  # constant across scales at the nodes
    basis = BasisSpec(space, 16)
    rule = build_rule(space)
    rng = np.random.default_rng(13)
    ops = []
    for j in range(10):
        if j < 6:
            parts = []
            for _ in range(2):
                c = 0.3 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                rad = 0.25 + 0.1 * rng.uniform()
                M = np.diag(rng.uniform(0.5, 1.0, 2))
                parts.append(toeplitz_matrix(basis, rule,
                                             ball_indicator_symbol(space, c, rad, M)))
            ops.append(parts[0] @ parts[1])
        else:
            entries = {}
            for i in range(2):
                for k in range(2):
                    entries[(i, k)] = {(0, 0): rng.uniform(-0.5, 0.5),
                                       (1, 0): 0.3 * rng.uniform(-1, 1),
                                       (0, 1): 0.3 * rng.uniform(-1, 1)}
            ops.append(toeplitz_matrix(basis, rule, poly_symbol(space, entries)))
    for T in ops:
        errs = [localization_error(T, coverings[r]) for r in radii]
        assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))


def test_criterion_09_berezin_samples_have_full_rank():
    cases = [
        (disc_space(0.0, d=1), 1, 2),
        (disc_space(0.0, d=2), 2, 2),
        (fock_space(d=2), 2, 3),
        (fock_space(d=1), 1, 8),
        (bidisc_space(0.0, 0.5, d=2), 2, 2),
    ]
    for space, d, n_small in cases:
        rep = berezin_injectivity_probe(space, d, n_small)
        assert rep.full_rank
        assert rep.rank == rep.n_parameters


def test_criterion_10_reports_reproduce_byte_for_byte(tmp_path):
    cfg = {
        "space": {"kind": "bergman_disc", "alpha": 0.0, "d": 2},
        "n_modes": 8,
        "seed": 3,
        "operator": {"type": "toeplitz", "symbol": "u"},
        "symbols": {"u": {"type": "poly", "entries": [
            {"i": 0, "k": 0, "terms": [{"a": 1, "b": 0, "c": 1.0}]},
            {"i": 1, "k": 1, "terms": [{"a": 0, "b": 0, "c": 0.5}]}]}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    payloads = []
    for run in ("a", "b"):
        out = tmp_path / run
        for command in ("berezin", "rf"):
            assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        texts = []
        for command in ("berezin", "rf"):
            raw = (out / f"{command}.json").read_text()
            texts.append(re.sub(r'^\s*"timestamp".*\n', "", raw, flags=re.M))
            texts.append((out / f"{command}.csv").read_text())
        payloads.append(texts)
    assert payloads[0] == payloads[1]
