import resetlb.analytic
from resetlb.verify import run_checks


def test_all_checks_pass():
    checks = run_checks()
    failed = [c.name for c in checks if not c.passed]
    assert not failed, f"failed checks: {failed}"
    assert len(checks) >= 20


def test_perturbed_formula_fails_by_name(monkeypatch):
    """Negative control: a shifted constant in the reset-negativity formula
    must be caught by the named check."""
    formula = resetlb.analytic.dephasing_ising_reset_negativity
    monkeypatch.setattr(resetlb.analytic, "dephasing_ising_reset_negativity", lambda *a: formula(*a) + 1e-6)
    checks = run_checks()
    failed = {c.name for c in checks if not c.passed}
    assert "reset_negativity_formula" in failed


def test_check_lines_render():
    for check in run_checks():
        line = check.line()
        assert line.startswith("[PASS]") or line.startswith("[FAIL]")
        assert check.target in line
