"""Exact points of the builtin maps that the tests check against. They live
here and not in conftest.py: the benchmark's tests have a conftest module of
their own, and one pytest run collects both."""

# the worked quadratic pair: left 3.4x(1-x), right 1-4x(1-x)
P_CYCLE = 0.48880830755049054
Q_CYCLE = 0.849574136468393
A3 = 5.0 / 17.0
B3 = 12.0 / 17.0
