"""The paper's published numbers, one copy for every test module.

Each entry is literal published data, typed as printed; none is computed
by nel.  Where the equations contradict a printed value, the entry holds
the corrected value and says why.
"""

# Figure 2's caption: the intercepts a_n for n = -3..6, seven significant
# digits.  a_6 is printed as 4.284674; bisection, the backward trace,
# scipy's DOP853 and the fixed-step RK4 in
# test_acceptance.py::test_criterion_01_sixth_intercept_by_rk4 all give
# 4.2847241, so the entry carries that value.
FIG2_CAPTION = {
    -3: -3.231360, -2: -2.698369, -1: -2.032651, 0: -1.016702,
    1: 1.602573, 2: 2.388358, 3: 2.976682, 4: 3.467542, 5: 3.897484,
    6: 4.284724,
}

# Criterion 9: the Painleve-I eigenvalues a_1..a_12, the initial slopes
# y'(0) of the separating solutions with y(0) = 1, six decimals.
PAINLEVE_EIGS = [0.231955, 3.980669, 6.257998, 8.075911, 9.654843, 11.078201,
                 12.389217, 13.613878, 14.769304, 15.867511, 16.917331, 17.925488]

# Criterion 10: C of the growth law a_n ~ C n^(3/5).
PAINLEVE_C = 4.28373

# Criterion 12: the largest partial-sum root modulus rho_50 peaks at
# RHO_MAX near tau = RHO_TAU (the twin maximum is at 1 - RHO_TAU).
RHO_MAX, RHO_TAU = 1.7818, 0.3780
