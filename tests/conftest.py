import pytest

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
