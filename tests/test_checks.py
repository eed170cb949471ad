"""Each public function checks each of its inputs once, where it comes in, and converts it there.

The private cores behind the public functions trust what they are given: no internal call goes back
through a checked public entry.  These tests count the finiteness checks by replacing every bell_lab
module's ``_require_finite`` binding, and the operator conversions by replacing ``operators._as_matrix``.
"""

import sys

import numpy as np
import pytest

from bell_lab import chsh, dbb, fock, mermin, operators

NAN = float("nan")
S = np.array([0.0, np.pi / 2, np.pi / 4, -np.pi / 4])
PSI = chsh.singlet()
BAD_PSI = [NAN, 0.0, 0.0, 0.0]
GHZ2 = mermin.ghz(2)
PAIRS3 = [(0.0, np.pi / 2)] * 3
ST = fock.ou_mandel_state(0.5, 0.5)
BAD_ST = np.r_[NAN, np.zeros(14)]
WF = dbb.TwoParticleWF(dbb.WavePacket(-1.5, 0.8, 0.6), dbb.WavePacket(1.5, 1.1, -0.4), "symmetric")


@pytest.fixture
def spied(monkeypatch):
    """The names each _require_finite call checked, and the number of _as_matrix calls, in a dict."""
    seen = {"finite": [], "as_matrix": 0}
    require_finite, as_matrix = operators._require_finite, operators._as_matrix

    def counting_require_finite(name, value):
        seen["finite"].append(name)
        return require_finite(name, value)

    def counting_as_matrix(a):
        seen["as_matrix"] += 1
        return as_matrix(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("bell_lab") and hasattr(module, "_require_finite"):
            monkeypatch.setattr(module, "_require_finite", counting_require_finite)
    monkeypatch.setattr(operators, "_as_matrix", counting_as_matrix)
    return seen


# public call -> the inputs it checks finite, in order
ONE_CHECK_PER_INPUT = {
    "identity_residual": (lambda: chsh.identity_residual(S), ["settings angles"]),
    "bell_operator": (lambda: chsh.bell_operator(S), ["settings angles"]),
    "chsh_value": (lambda: chsh.chsh_value(PSI, S), ["settings angles", "ket amplitudes"]),
    "correlation": (lambda: chsh.correlation(PSI, 0.1, [0.2, 0.3]), ["ket amplitudes", "angles", "angles"]),
    # the scanned singlet is a constant ket, built without a check
    "tsirelson_scan": (lambda: chsh.tsirelson_scan(grid_step=np.pi / 4), ["grid_step"]),
    "mermin_value": (lambda: mermin.mermin_value(GHZ2, [(0.0, np.pi / 2)] * 2), ["angle pairs", "ket amplitudes"]),
    "constant kets": (lambda: (chsh.singlet(), chsh.photon_pair_state(), mermin.ghz(10)), []),
    "mermin_value of ghz(10)": (lambda: mermin.mermin_value(mermin.ghz(10), [(0.0, np.pi / 2)] * 10),
                                ["angle pairs", "ket amplitudes"]),
    "mermin_operator": (lambda: mermin.mermin_operator(PAIRS3), ["angle pairs"]),
    "mermin_square_residual": (lambda: mermin.mermin_square_residual(PAIRS3), ["angle pairs"]),
    "mermin_shared_scan": (lambda: mermin.mermin_shared_scan(3, np.pi / 4), ["grid_step"]),
    "ghz_expectation_shared": (lambda: mermin.ghz_expectation_shared(3, 0.1, 0.2), ["angles", "angles"]),
    "coincidence_probability": (lambda: fock.coincidence_probability(ST, 0.1, 0.2), ["theta", "theta", "amplitudes"]),
    "coincidence_correlation": (lambda: fock.coincidence_correlation(ST, 0.1, [0.2, 0.3]),
                                ["theta", "theta", "amplitudes"]),
    "ou_mandel_state": (lambda: fock.ou_mandel_state(0.7, 0.4), ["t_x", "t_y"]),
    "product_state": (lambda: fock.product_state(0.7, 0.4), ["t_x", "t_y"]),
    "coincidence_closed_form": (lambda: fock.coincidence_closed_form(0.7, 0.4, 0.1, [0.2, 0.3]),
                                ["t_x", "t_y", "theta", "theta"]),
    "velocity_2p": (lambda: dbb.velocity_2p(WF, 0.1, 0.2, 0.8), ["x1", "x2", "t"]),
    "cross_coupling": (lambda: dbb.cross_coupling(WF, [0.1, 0.2], 0.3, 0.8), ["x1", "x2", "t"]),
    "psi2_eval": (lambda: dbb.psi2_eval(WF, 0.1, 0.2, 0.8), ["x1", "x2", "t"]),
    "packet_overlap at the later start": (lambda: dbb.packet_overlap(WF.packet_a, WF.packet_b), []),
    "integrate_trajectory": (lambda: dbb.integrate_trajectory(WF, (0.1, 0.2), 0.0, 0.1, 0.01),
                             ["t0", "t1", "dt", "x1", "x2"]),
    "integrate_spin": (lambda: dbb.integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.1, 0.01, gyro=2.0),
                       ["gyro", "t0", "t1", "dt", "s", "b_field"]),
}


@pytest.mark.parametrize("call, checked", ONE_CHECK_PER_INPUT.values(), ids=ONE_CHECK_PER_INPUT)
def test_each_input_is_checked_once(spied, call, checked):
    call()
    assert spied["finite"] == checked
    # the package's own products and expectations skip the public operator entries
    assert spied["as_matrix"] == 0


def test_public_operator_entries_still_convert_and_check(spied):
    m = operators.tensor(np.eye(2), np.eye(2))
    operators.commutator(m, m)
    operators.expectation(np.ones(4) / 2.0, m)
    assert spied["as_matrix"] == 5 and spied["finite"] == ["ket amplitudes"]


# call with a NaN (or inf) in one input, or in two -> the error it raised before the checks moved to the
# boundary; where two inputs are bad, the one named is the one the earlier code refused first
NONFINITE_MESSAGES = {
    "identity_residual(settings)": (lambda: chsh.identity_residual([NAN, 0, 0, 0]),
                                    "settings angles must be finite, got array([nan,  0.,  0.,  0.])"),
    "bell_operator(settings)": (lambda: chsh.bell_operator([0, NAN, 0, 0]),
                                "settings angles must be finite, got array([ 0., nan,  0.,  0.])"),
    "chsh_value(psi)": (lambda: chsh.chsh_value(BAD_PSI, S),
                        "ket amplitudes must be finite, got array([nan,  0.,  0.,  0.,  0.,  0.,  0.,  0.])"),
    "chsh_value(settings)": (lambda: chsh.chsh_value(PSI, [0, 0, NAN, 0]),
                             "settings angles must be finite, got array([ 0.,  0., nan,  0.])"),
    "chsh_value(psi, settings)": (lambda: chsh.chsh_value(BAD_PSI, [0, 0, NAN, 0]),
                                  "settings angles must be finite, got array([ 0.,  0., nan,  0.])"),
    "correlation(psi)": (lambda: chsh.correlation(BAD_PSI, 0.1, 0.2),
                         "ket amplitudes must be finite, got array([nan,  0.,  0.,  0.,  0.,  0.,  0.,  0.])"),
    "correlation(a)": (lambda: chsh.correlation(PSI, NAN, 0.2), "angles must be finite, got array(nan)"),
    "correlation(b)": (lambda: chsh.correlation(PSI, 0.1, [0.2, NAN]), "angles must be finite, got array([0.2, nan])"),
    "correlation(psi, b)": (lambda: chsh.correlation(BAD_PSI, 0.1, NAN),
                            "ket amplitudes must be finite, got array([nan,  0.,  0.,  0.,  0.,  0.,  0.,  0.])"),
    "correlation(a, b)": (lambda: chsh.correlation(PSI, [NAN], NAN), "angles must be finite, got array([nan])"),
    "tsirelson_scan(grid_step)": (lambda: chsh.tsirelson_scan("spin_half", NAN), "grid_step must be finite, got nan"),
    "mermin_value(psi)": (lambda: mermin.mermin_value([0.0, 0.0, 0.0, NAN], [(0.0, np.pi / 2)] * 2),
                          "ket amplitudes must be finite, got array([ 0.,  0.,  0.,  0.,  0.,  0., nan,  0.])"),
    "mermin_value(pairs)": (lambda: mermin.mermin_value(GHZ2, [(0.0, NAN)] * 2),
                            "angle pairs must be finite, got array([[ 0., nan],\n       [ 0., nan]])"),
    "mermin_value(psi, pairs)": (lambda: mermin.mermin_value([0.0, 0.0, 0.0, NAN], [(NAN, 0.0)] * 2),
                                 "angle pairs must be finite, got array([[nan,  0.],\n       [nan,  0.]])"),
    "mermin_operator(pairs)": (lambda: mermin.mermin_operator([(NAN, 0.0)]),
                               "angle pairs must be finite, got array([[nan,  0.]])"),
    "mermin_square_residual(pairs)": (
        lambda: mermin.mermin_square_residual([(0.0, 1.0), (NAN, 0.0), (0.0, 1.0)]),
        "angle pairs must be finite, got array([[ 0.,  1.],\n       [nan,  0.],\n       [ 0.,  1.]])"),
    "mermin_shared_scan(grid_step)": (lambda: mermin.mermin_shared_scan(3, NAN), "grid_step must be finite, got nan"),
    "ghz_expectation_shared(a)": (lambda: mermin.ghz_expectation_shared(3, NAN, 0.0),
                                  "angles must be finite, got array(nan)"),
    "ghz_expectation_shared(a_prime)": (lambda: mermin.ghz_expectation_shared(3, 0.0, [NAN]),
                                        "angles must be finite, got array([nan])"),
    "coincidence_probability(state)": (
        lambda: fock.coincidence_probability(BAD_ST, 0.1, 0.2),
        "amplitudes must be finite, got array([nan,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,\n"
        "        0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,\n        0.,  0.,  0.,  0.])"),
    "coincidence_probability(theta1)": (lambda: fock.coincidence_probability(ST, NAN, 0.2),
                                        "theta must be finite, got nan"),
    "coincidence_probability(theta2)": (lambda: fock.coincidence_probability(ST, 0.1, np.array([0.2, NAN])),
                                        "theta must be finite, got array([0.2, nan])"),
    "coincidence_correlation(state)": (
        lambda: fock.coincidence_correlation(BAD_ST, 0.1, 0.2),
        "amplitudes must be finite, got array([nan,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,\n"
        "        0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,  0.,\n        0.,  0.,  0.,  0.])"),
    "coincidence_correlation(theta1)": (lambda: fock.coincidence_correlation(ST, NAN, 0.2),
                                        "theta must be finite, got nan"),
    "coincidence_correlation(theta2)": (lambda: fock.coincidence_correlation(ST, 0.1, np.array([0.2, NAN])),
                                        "theta must be finite, got array([0.2, nan])"),
    "coincidence_correlation(state, theta2)": (lambda: fock.coincidence_correlation(BAD_ST, 0.1, NAN),
                                               "theta must be finite, got nan"),
    "coincidence_correlation(theta1, theta2)": (lambda: fock.coincidence_correlation(ST, np.inf, NAN),
                                                "theta must be finite, got inf"),
    "coincidence_closed_form(theta1)": (lambda: fock.coincidence_closed_form(0.7, 0.4, NAN, 0.2),
                                        "theta must be finite, got nan"),
    "coincidence_closed_form(theta2)": (lambda: fock.coincidence_closed_form(0.7, 0.4, 0.1, np.array([0.2, -np.inf])),
                                        "theta must be finite, got array([ 0.2, -inf])"),
    "coincidence_closed_form(t_x, theta1)": (lambda: fock.coincidence_closed_form(NAN, 0.4, np.inf, 0.2),
                                             "t_x must be finite, got nan"),
    "ou_mandel_state(t_y)": (lambda: fock.ou_mandel_state(0.7, np.inf), "t_y must be finite, got inf"),
    "product_state(t_x)": (lambda: fock.product_state(NAN, 0.4), "t_x must be finite, got nan"),
    "velocity_2p(x1)": (lambda: dbb.velocity_2p(WF, NAN, 0.2, 0.8), "x1 must be finite, got nan"),
    "velocity_2p(x1 as a list)": (lambda: dbb.velocity_2p(WF, [0.1, NAN], 0.2, 0.8),
                                  "x1 must be finite, got [0.1, nan]"),
    "velocity_2p(x2)": (lambda: dbb.velocity_2p(WF, 0.1, np.array([0.2, NAN]), 0.8),
                        "x2 must be finite, got array([0.2, nan])"),
    "velocity_2p(t)": (lambda: dbb.velocity_2p(WF, 0.1, 0.2, NAN), "t must be finite, got nan"),
    "velocity_2p(x2, t)": (lambda: dbb.velocity_2p(WF, 0.1, NAN, NAN), "x2 must be finite, got nan"),
    "cross_coupling(x1)": (lambda: dbb.cross_coupling(WF, np.inf, 0.2, 0.8), "x1 must be finite, got inf"),
    "cross_coupling(t)": (lambda: dbb.cross_coupling(WF, 0.1, 0.2, NAN), "t must be finite, got nan"),
    "cross_coupling(x1, t)": (lambda: dbb.cross_coupling(WF, NAN, 0.2, -np.inf), "x1 must be finite, got nan"),
    "psi2_eval(x2)": (lambda: dbb.psi2_eval(WF, 0.1, NAN, 0.8), "x2 must be finite, got nan"),
    "psi2_eval(t)": (lambda: dbb.psi2_eval(WF, 0.1, 0.2, np.inf), "t must be finite, got inf"),
    "integrate_trajectory(start)": (lambda: dbb.integrate_trajectory(WF, (NAN, 0.2), 0.0, 0.1, 0.01),
                                    "x1 must be finite, got nan"),
    "integrate_trajectory(t0)": (lambda: dbb.integrate_trajectory(WF, (0.1, 0.2), NAN, 0.1, 0.01),
                                 "t0 must be finite, got nan"),
    "integrate_trajectory(t1)": (lambda: dbb.integrate_trajectory(WF, (0.1, 0.2), 0.0, NAN, 0.01),
                                 "t1 must be finite, got nan"),
    "integrate_trajectory(dt)": (lambda: dbb.integrate_trajectory(WF, (0.1, 0.2), 0.0, 0.1, NAN),
                                 "dt must be finite, got nan"),
    "integrate_trajectory(start, t0)": (lambda: dbb.integrate_trajectory(WF, (0.1, NAN), NAN, 0.1, 0.01),
                                        "t0 must be finite, got nan"),
}


@pytest.mark.parametrize("call, message", NONFINITE_MESSAGES.values(), ids=NONFINITE_MESSAGES)
def test_nonfinite_input_is_refused_with_its_message(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("form", dbb.FORMS)
def test_array_like_points_broadcast_as_arrays(form):
    # a list is converted where it is checked; numbers and arrays go to the kernels as given
    wf = dbb.TwoParticleWF(WF.packet_a, WF.packet_b, form)
    for f in (dbb.velocity_2p, dbb.cross_coupling, dbb.psi2_eval):
        for x1, x2 in (([0.1, 0.2], 0.3), (0.1, [0.3, 0.4]), ([[0.1], [0.2]], [0.3, 0.4])):
            got, want = f(wf, x1, x2, 0.8), f(wf, np.array(x1), np.array(x2), 0.8)
            for g, w in zip(*(r if isinstance(r, tuple) else (r,) for r in (got, want))):
                assert g.shape == w.shape and np.array_equal(g, w)


def test_array_like_angles_broadcast_as_arrays():
    for t1, t2 in (([0.1, 0.2], 0.3), (0.1, [0.3, 0.4]), ([[0.1], [0.2]], [0.3, 0.4])):
        for f in (fock.coincidence_probability, fock.coincidence_correlation):
            got, want = f(ST, t1, t2), f(ST, np.array(t1), np.array(t2))
            assert got.shape == want.shape and np.array_equal(got, want)
    assert type(fock.coincidence_correlation(ST, 0.1, 0.3)) is float
