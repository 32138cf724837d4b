import pytest

from gammasums.cyclotomic import CyclotomicRing
from gammasums.fields import build_tower


@pytest.fixture
def ring_conductors(monkeypatch):
    """The conductors of the CyclotomicRings built while the test runs, in
    order."""
    built = []
    real = CyclotomicRing.__init__

    def record(self, conductor):
        built.append(conductor)
        real(self, conductor)

    monkeypatch.setattr(CyclotomicRing, "__init__", record)
    return built


@pytest.fixture(scope="session")
def tower_f3():
    return build_tower(3, 1, 2)


@pytest.fixture(scope="session")
def tower_f3_deep():
    return build_tower(3, 1, 3)


@pytest.fixture(scope="session")
def tower_f2():
    return build_tower(2, 1, 2)


@pytest.fixture(scope="session")
def tower_f4():
    return build_tower(2, 2, 2)


@pytest.fixture(scope="session")
def tower_f5():
    return build_tower(5, 1, 2)
