import pytest

from liepar.config import WEYL_BUDGET, check_budget, effective_budget
from liepar.errors import BudgetError, ConfigError
from liepar.rootsys import build_root_system
from liepar.weyl import generate_weyl


def test_effective_budget_default(monkeypatch):
    monkeypatch.delenv("LIEPAR_BUDGET", raising=False)
    assert effective_budget(WEYL_BUDGET) == WEYL_BUDGET


def test_effective_budget_override(monkeypatch):
    monkeypatch.setenv("LIEPAR_BUDGET", "12345")
    assert effective_budget(WEYL_BUDGET) == 12345


@pytest.mark.parametrize("raw", ["junk", "-5", "0", "", "1.5"])
def test_bad_budget_override_is_an_error(monkeypatch, raw):
    monkeypatch.setenv("LIEPAR_BUDGET", raw)
    with pytest.raises(ConfigError, match=f"LIEPAR_BUDGET must be a positive integer, got {raw!r}"):
        effective_budget(WEYL_BUDGET)


def test_check_budget_refuses_over_the_effective_budget(monkeypatch):
    monkeypatch.delenv("LIEPAR_BUDGET", raising=False)
    assert check_budget(10, 10, "thing") == 10
    with pytest.raises(BudgetError, match=r"^thing of size 11 exceeds budget 10; set LIEPAR_BUDGET to raise it$"):
        check_budget(10, 11, "thing of size 11")
    monkeypatch.setenv("LIEPAR_BUDGET", "11")
    assert check_budget(10, 11, "thing of size 11") == 11


def test_env_budget_limits_weyl_enumeration(monkeypatch):
    monkeypatch.setenv("LIEPAR_BUDGET", "10")
    with pytest.raises(BudgetError, match=r"^\|W\| = 48 with no length bound exceeds budget 10; "
                                          r"set LIEPAR_BUDGET to raise it$"):
        generate_weyl(build_root_system("B3"))
    monkeypatch.delenv("LIEPAR_BUDGET")
    assert len(generate_weyl(build_root_system("B3"))) == 48
