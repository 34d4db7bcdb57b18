"""Shared test wiring: prints a one-line verdict per acceptance criterion."""

_CRITERIA = {
    "test_c01": "worked example: qp_pmf(3, ln(4/3)) entrywise within 1e-4, < 1 ms",
    "test_c02": "gamma_star within 1e-9 of 1/(1+sqrt(e)); P-values within 1e-4, < 5 s",
    "test_c03": "q2 closed form vs quadrature within 1e-9 on both branches; "
                "flipped dilog signs differ by > 0.1 at (0.4, 1), < 30 s",
    "test_c04": "Q_recurrence vs q_limit within 1e-7 for k <= 4 on 20-pt grids, < 2 min",
    "test_c05": "exact_pmf == brute_force_pmf exactly, all n <= 8, all windows, < 1 min",
    "test_c06": "TV(exact_pmf(n), quasi-Poisson(3, ln(4/3))) decreasing over "
                "n in {500,1000,2000} and <= 0.01 at n=2000, < 1 min",
    "test_c07": "harmonic window mean at n=3000 within 1.5e-3 of -ln(0.6), < 10 s",
    "test_c08": "binomial matrices M*N = I exactly in integers, n <= 12, < 1 s",
    "test_c09": "qp_pmf(r, 1) == fixed-point distribution within 1e-12, r <= 8, < 10 s",
    "test_c10": "MC pmf within 4 stderr of p_limit at n=2000, 2e5 draws, "
                "seed 20260815; rerun bit-identical, < 1 min",
    "test_c11": "small-simplex ratio inside [k^k/k!, gamma^-k/k!]; within 2% "
                "of k^k/k! at gamma = 1/k - 1e-3, < 1 min",
    "test_c12": "Buchstab omega = 1/u on [1,2]; recurrence residual <= 1e-8 on [2,6], < 5 s",
    "test_c13": "Ewens window mean at sigma=2, n=5000, 1e5 draws: within 4 stderr "
                "of sigma*ewens_lambda and of the exact finite-n mean",
}

_outcomes = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1].split("[")[0]
    key = name.split("_")[0] + "_" + name.split("_")[1]
    if key not in _CRITERIA:
        return
    if report.when == "call":
        _outcomes[key] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _outcomes[key] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_CRITERIA):
        if key in _outcomes:
            verdict = "PASS" if _outcomes[key] == "passed" else "FAIL"
            terminalreporter.write_line(f"{key[5:].upper()} {verdict}  {_CRITERIA[key]}")
