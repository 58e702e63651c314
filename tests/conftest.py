import numpy as np
import pytest

from berglab import spaces
from berglab.coeffs import BasisSpec
from berglab.quadrature import build_rule


@pytest.fixture(scope="session")
def disc():
    return spaces.disc_space(0.0, d=2)


@pytest.fixture(scope="session")
def disc_weighted():
    return spaces.disc_space(1.5, d=2)


@pytest.fixture(scope="session")
def fock():
    return spaces.fock_space(d=2)


@pytest.fixture(scope="session")
def bidisc():
    return spaces.bidisc_space(0.0, 0.5, d=2)


@pytest.fixture(scope="session")
def all_spaces(disc, disc_weighted, fock, bidisc):
    return [disc, disc_weighted, fock, bidisc]


@pytest.fixture(scope="session")
def disc_rule(disc):
    return build_rule(disc)


@pytest.fixture(scope="session")
def fock_rule(fock):
    return build_rule(fock)


@pytest.fixture(scope="session")
def bidisc_rule(bidisc):
    return build_rule(bidisc)


@pytest.fixture(scope="session")
def disc_basis(disc):
    return BasisSpec(disc, 16)


@pytest.fixture(scope="session")
def fock_basis(fock):
    return BasisSpec(fock, 16)


@pytest.fixture(scope="session")
def bidisc_basis(bidisc):
    return BasisSpec(bidisc, 6)


def rule_for(space):
    return build_rule(space)


def sample_points(space, n, seed=0, scale=0.8):
    """Deterministic scatter of admissible points for a space."""
    rng = np.random.default_rng(seed)
    lim = scale * spaces.probe_radius_max(space)

    def draw():
        return lim * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))

    return spaces.point(space, [draw() for _ in space.factors])


def enlargement(covering):
    """(n_cells, n_nodes) bool membership of the cell enlargements: each row is the AND
    of the cell's factor enlargements, lifted to the nodes of the tensor mesh."""
    shape = [m.shape[1] for m in covering.factor_enlargement]
    at = np.unravel_index(np.arange(covering.rule.n_nodes), shape)   # each node's factor nodes
    lifted = [m[:, i] for m, i in zip(covering.factor_enlargement, at)]
    member = np.empty((covering.n_cells, covering.rule.n_nodes), dtype=bool)
    for j, pick in enumerate(covering.pick.tolist()):
        member[j] = np.logical_and.reduce([m[a] for m, a in zip(lifted, pick)])
    return member
