import pytest

from zslen import atoms as atoms_module
from zslen.group import make_group


@pytest.fixture(scope="session")
def c2():
    return make_group([2])


@pytest.fixture(scope="session")
def c3():
    return make_group([3])


@pytest.fixture(scope="session")
def c4():
    return make_group([4])


@pytest.fixture(scope="session")
def c5():
    return make_group([5])


@pytest.fixture(scope="session")
def c22():
    return make_group([2, 2])


@pytest.fixture(scope="session")
def c222():
    return make_group([2, 2, 2])


@pytest.fixture(scope="session")
def c33():
    return make_group([3, 3])


@pytest.fixture(scope="session")
def c24():
    return make_group([2, 4])


@pytest.fixture
def fresh_atom_cache(monkeypatch):
    """Swap the registry of enumerate_atoms for an empty one, so that the
    scans walk A(G0) afresh and run on new engines: the module's cached
    sets hold engines that earlier tests ran.  Calling the returned
    function empties it again, as a Hypothesis example needs."""

    def renew():
        monkeypatch.setattr(atoms_module, "_ATOM_SETS", {})

    renew()
    return renew
