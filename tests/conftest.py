import pytest

from hopial import eigen
from hopial import funcspace as fs


@pytest.fixture
def unit() -> fs.Interval:
    return fs.Interval(0.0, 1.0)


@pytest.fixture
def one() -> fs.Constant:
    return fs.Constant(1.0)


@pytest.fixture
def marches(monkeypatch) -> list:
    """The step count of each shooting march the test makes, in order."""
    steps = []
    real = eigen._march

    def counting(legs_data, lam, p):
        steps.append(sum((len(R_vals) - 1) // 2 for R_vals, _, _ in legs_data))
        return real(legs_data, lam, p)

    monkeypatch.setattr(eigen, "_march", counting)
    return steps
