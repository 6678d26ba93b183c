"""What both systems share: the branch rule (the minus branch exists exactly
when 0 < |k1| <= 1/2, checked at the edges of that interval), the contract
of every real-valued public closed form (a finite double or DomainError, a
float for a scalar angle, an infinite angle refused), the integer, real-array,
domain, interval, grid-step and callable-values rules of every public argument, the
real-scalar, geometry and branch rules of every system field, the real- and
complex-scalar and complex-array rules of the parameter map and special functions, the
envelope of both norm routines, the dispatch on system type and the merged spectrum."""

import contextlib
import io
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circle_sqm import Branch, CircleGeometry, PoschlTellerForm
from circle_sqm import coulomb as cou
from circle_sqm import oscillator as osc
from circle_sqm import cli, specfun
from circle_sqm.errors import BranchError, DomainError
from circle_sqm.numerics import (TridiagonalMatrix, build_hamiltonian,
                                 eigenvalue_with_refinement, gauss_legendre_rule,
                                 lowest_eigenvalues, ode_residual, residual_rate,
                                 richardson_extrapolate, validate)
from circle_sqm.systems import (closed_forms, finite_result, half_offset_grid, in_blocks,
                                interval, spectrum, two_branch)

UNIT = CircleGeometry(1.0)
ABOVE_HALF = float(np.nextafter(0.5, 1.0))


def families(system):
    return {member.branch for _, member, _ in spectrum(system, 2)}


def test_coulomb_k1_zero_has_plus_family_only():
    assert families(cou.CoulombSystem(UNIT, mu=1.0, k1=0.0)) == {Branch.PLUS}
    with pytest.raises(BranchError):
        cou.CoulombSystem(UNIT, mu=1.0, k1=0.0, branch=Branch.MINUS)


def test_k1_one_half_has_both_families():
    oscillator = osc.OscillatorSystem(UNIT, omega=1.0, k1=0.5, branch=Branch.MINUS)
    coulomb = cou.CoulombSystem(UNIT, mu=1.0, k1=0.5, branch=Branch.MINUS)
    assert families(oscillator) == {Branch.PLUS, Branch.MINUS}
    assert families(coulomb) == {Branch.PLUS, Branch.MINUS}
    assert oscillator.motion_domain == (-math.pi / 2, math.pi / 2)


def test_k1_just_above_one_half_has_plus_family_only():
    oscillator = osc.OscillatorSystem(UNIT, omega=1.0, k1=ABOVE_HALF)
    coulomb = cou.CoulombSystem(UNIT, mu=1.0, k1=ABOVE_HALF)
    assert families(oscillator) == {Branch.PLUS}
    assert families(coulomb) == {Branch.PLUS}
    assert oscillator.motion_domain == (0.0, math.pi / 2)
    with pytest.raises(BranchError):
        osc.OscillatorSystem(UNIT, omega=1.0, k1=ABOVE_HALF, branch=Branch.MINUS)
    with pytest.raises(BranchError):
        cou.CoulombSystem(UNIT, mu=1.0, k1=ABOVE_HALF, branch=Branch.MINUS)


OSC = osc.OscillatorSystem(UNIT, omega=1.0, k1=1.5)
COU = cou.CoulombSystem(UNIT, mu=1.0, k1=1.0)
TINY = CircleGeometry(1e-200)
PHI = object()  # the place of the angle among a form's arguments
# form: (arguments at ordinary parameters, arguments at which it overflows)
CLOSED_FORMS = {
    "oscillator.k0": (osc.OscillatorSystem.k0.fget, (OSC,),
                      (osc.OscillatorSystem(UNIT, omega=1e200, k1=1.5),)),
    "oscillator.potential": (osc.potential, (OSC, PHI),
                             (osc.OscillatorSystem(TINY, omega=1.0, k1=1.5), 0.5)),
    "oscillator.reduced_eigenvalue": (osc.reduced_eigenvalue, (OSC, 2),
                                      (osc.OscillatorSystem(UNIT, 1.0, 1e200), 0)),
    "oscillator.energy_from_reduced": (osc.energy_from_reduced, (OSC, 9.0),
                                       (osc.OscillatorSystem(TINY, omega=1.0, k1=1.5), 9.0)),
    "oscillator.energy_level": (osc.energy_level, (OSC, 2),
                                (osc.OscillatorSystem(CircleGeometry(1e200), 1.0, 1.5), 2)),
    "oscillator.wavefunction": (osc.wavefunction, (OSC, 2, PHI),
                                (osc.OscillatorSystem(UNIT, omega=1e200, k1=1.5), 2, 0.5)),
    "coulomb.potential": (cou.potential, (COU, PHI), (cou.CoulombSystem(TINY, 1.0, 1.0), 0.5)),
    "coulomb.energy_level": (cou.energy_level, (COU, 2), (cou.CoulombSystem(TINY, 1.0, 1.0), 2)),
    "coulomb.norm_constant": (cou.norm_constant, (COU, 2), (cou.CoulombSystem(UNIT, 1e300, 1.0), 0)),
    "coulomb.wavefunction": (cou.wavefunction, (COU, 2, PHI),
                             (cou.CoulombSystem(UNIT, 1e300, 1.0), 2, 0.5)),
    "coulomb.extend_parity": (cou.extend_parity, (COU, 2, PHI, cou.Parity.ODD),
                              (cou.CoulombSystem(UNIT, 1e300, 1.0), 2, 0.5, cou.Parity.ODD)),
    "specfun.gamma_abs": (specfun.gamma_abs, (2.5 + 1j,), (200.0,)),
    "validate.flat_limit_energy": (validate.flat_limit_energy, (COU, 2),
                                   (cou.CoulombSystem(UNIT, 1e200, 1.0), 0)),
    "validate.flat_limit_wavefunction": (validate.flat_limit_wavefunction, (COU, 2, PHI),
                                         (COU, 300, 5000.0)),
}


def call(form, args, phi):
    return form(*(phi if arg is PHI else arg for arg in args))


@pytest.mark.parametrize("form, args, overflowing", CLOSED_FORMS.values(), ids=CLOSED_FORMS)
def test_closed_form_contract(form, args, overflowing):
    # every finite_result wrapper shares one code object
    assert form.__code__ is finite_result(abs).__code__
    with pytest.raises(DomainError):
        call(form, overflowing, None)
    assert type(call(form, args, 0.5)) is float
    if any(arg is PHI for arg in args):
        # an infinite angle is refused, with no RuntimeWarning (an error under pytest)
        for infinite in (math.inf, -math.inf, np.array([0.5, math.inf])):
            with pytest.raises(DomainError):
                call(form, args, infinite)
        phi = np.linspace(0.2, 1.2, 6).reshape(2, 3)
        values = call(form, args, phi)
        assert type(values) is np.ndarray and values.shape == phi.shape
        assert values[1, 2] == pytest.approx(call(form, args, 1.2), rel=1e-13)


# every public closed form that takes a level index, called with n in its place
LEVEL_FORMS = {
    "oscillator.reduced_eigenvalue": lambda n: osc.reduced_eigenvalue(OSC, n),
    "oscillator.energy_level": lambda n: osc.energy_level(OSC, n),
    "oscillator.wavefunction": lambda n: osc.wavefunction(OSC, n, 0.5),
    "oscillator.l2_norm": lambda n: osc.l2_norm(OSC, n),
    "coulomb.quantize": lambda n: cou.quantize(COU, n),
    "coulomb.energy_level": lambda n: cou.energy_level(COU, n),
    "coulomb.wavefunction": lambda n: cou.wavefunction(COU, n, 0.5),
    "coulomb.extend_parity": lambda n: cou.extend_parity(COU, n, 0.5, cou.Parity.ODD),
    "coulomb.diamond_norm[m]": lambda m: cou.diamond_norm(COU, 2, m),
    "coulomb.norm_constant": lambda n: cou.norm_constant(COU, n),
    "coulomb.contour_norm_constant": lambda n: cou.contour_norm_constant(COU, n),
    "systems.spectrum": lambda n: spectrum(OSC, n),
    "validate.flat_limit_energy": lambda n: validate.flat_limit_energy(COU, n),
    "validate.flat_limit_wavefunction": lambda n: validate.flat_limit_wavefunction(COU, n, 1.0),
    "validate.contraction_check": lambda n: validate.contraction_check(COU, n, (1e2, 1e3)),
}


def cli_output(argv, flag):
    """The CLI command ``argv`` with ``flag`` set to the count, as the text it writes."""
    def run(count):
        args = cli.build_parser().parse_args(argv)
        setattr(args, flag, count)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            args.func(args)
        return out.getvalue()
    return run


MATRIX = TridiagonalMatrix(np.arange(1.0, 7.0), np.full(5, 0.5))
# every other public count and degree: (its least value, the form called with it in its place)
COUNT_FORMS = {
    "specfun.jacobi_scaled": (0, lambda n: specfun.jacobi_scaled(n, 1.0, 0.2, 0.4, 0.3, 1.0)),
    "specfun.hyp2f1_terminating": (0, lambda n: specfun.hyp2f1_terminating(n, 1.5, 2.5, 0.3)),
    "specfun.hyp1f1_terminating": (0, lambda n: specfun.hyp1f1_terminating(n, 2.5, 0.3)),
    "eigensolve.build_hamiltonian": (16, lambda n: build_hamiltonian(
        np.cos, 1.0, (0.0, 1.0), n).diagonal.tolist()),
    "eigensolve.lowest_eigenvalues": (1, lambda n: lowest_eigenvalues(MATRIX, n).tolist()),
    "residual.ode_residual": (8, lambda n: ode_residual(
        np.sin, lambda p: 1 + 0 * p, (0.1, 1.0), n)),
    "quadrature.gauss_legendre_rule[panel_count]": (1, lambda n: [
        part.tolist() for part in gauss_legendre_rule(n, 4, 0.0, 1.0)]),
    "quadrature.gauss_legendre_rule[order]": (2, lambda n: [
        part.tolist() for part in gauss_legendre_rule(3, n, 0.0, 1.0)]),
    "quadrature.gauss_legendre_rule[endpoint_refinement]": (0, lambda n: [
        part.tolist() for part in gauss_legendre_rule(3, 4, 0.0, 1.0, endpoint_refinement=n)]),
    "cli.spectrum[--levels]": (0, cli_output(
        ["spectrum", "--system", "oscillator", "--omega", "1", "--radius", "1", "--k1", "0.5",
         "--levels", "1"], "levels")),
    "cli.wavefunction[--samples]": (2, cli_output(
        ["wavefunction", "--system", "coulomb", "--mu", "1", "--radius", "1", "--k1", "1",
         "--n", "1", "--samples", "2"], "samples")),
}
INTEGER_FORMS = {**{name: (0, form) for name, form in LEVEL_FORMS.items()}, **COUNT_FORMS}


@pytest.mark.parametrize("name", INTEGER_FORMS, ids=INTEGER_FORMS)
def test_level_index_guard(name):
    least, form = INTEGER_FORMS[name]
    for n in (least - 1, 0.5, least + 1.5, float(least), least + 2.0, [least + 2]):
        with pytest.raises(DomainError):
            form(n)
    assert form(np.int64(least + 2)) == form(least + 2)


# every public real-array argument, called with the array in its place
ARRAY_FORMS = {
    "specfun.jacobi_scaled[x_w]": lambda x: specfun.jacobi_scaled(2, 1.0, 0.2, x, 0.3, 1.0),
    "specfun.jacobi_scaled[d_w]": lambda x: specfun.jacobi_scaled(2, 1.0, 0.2, 0.4, x, 1.0),
    "specfun.jacobi_scaled[w_sq]": lambda x: specfun.jacobi_scaled(2, 1.0, 0.2, 0.4, 0.3, x),
    "oscillator.potential": lambda phi: osc.potential(OSC, phi),
    "coulomb.potential": lambda phi: cou.potential(COU, phi),
    "validate.flat_limit_wavefunction": lambda y: validate.flat_limit_wavefunction(COU, 2, y),
    "validate.contraction_check": lambda radii: validate.contraction_check(COU, 0, radii),
    "eigensolve.lowest_eigenvalues[guess]": lambda guess: lowest_eigenvalues(
        MATRIX, 1, guess=guess),
    "systems.in_blocks": lambda phi: in_blocks(np.negative, phi, 0.0, 1.0),
    "eigensolve.TridiagonalMatrix[diagonal]": lambda d: TridiagonalMatrix(d, [0.5]),
    "eigensolve.TridiagonalMatrix[off_diagonal]": lambda e: TridiagonalMatrix([1.0, 2.0], e),
    "residual.richardson_extrapolate[coarse]": lambda x: richardson_extrapolate(x, 0.5),
    "residual.richardson_extrapolate[fine]": lambda x: richardson_extrapolate(0.5, x),
}
# a complex array, a complex scalar, a string and a ragged list
NOT_REAL = (np.array([0.5 + 0.1j]), 0.5 + 0.1j, "0.5", [[0.5], [0.6, 0.7]])


@pytest.mark.parametrize("name", ARRAY_FORMS, ids=ARRAY_FORMS)
def test_real_array_guard(name):
    for values in NOT_REAL:
        with pytest.raises(DomainError, match="real"):
            ARRAY_FORMS[name](values)


# every public domain, called with the domain in its place
DOMAIN_FORMS = {
    "eigensolve.build_hamiltonian": lambda domain: build_hamiltonian(
        np.cos, 1.0, domain, 16).diagonal.tolist(),
    "residual.ode_residual": lambda domain: ode_residual(np.sin, np.cos, domain, 16),
    "residual.residual_rate": lambda domain: residual_rate(np.sin, np.cos, domain, 16),
}
# every public interval, called with its ends in their place
INTERVAL_FORMS = {
    **{name: lambda a, b, form=form: form((a, b)) for name, form in DOMAIN_FORMS.items()},
    "quadrature.gauss_legendre_rule": lambda a, b: gauss_legendre_rule(4, 4, a, b),
}
# complex, string, infinite, NaN, reversed and empty ends, and finite ends whose width is not
NOT_INTERVALS = ((0, 1j), (1j, 1.0), ("0", 1.0), (0.0, math.inf), (-math.inf, 0.0),
                 (math.nan, 1.0), (0.0, math.nan), (1.0, 0.5), (1.0, 1.0), (-1e308, 1e308))


@pytest.mark.parametrize("name", INTERVAL_FORMS, ids=INTERVAL_FORMS)
def test_interval_guard(name):
    for a, b in NOT_INTERVALS:
        with pytest.raises(DomainError, match="domain|interval"):
            INTERVAL_FORMS[name](a, b)


def test_interval_keeps_finite_widths():
    assert interval(1e308, 1.7e308, "domain") == (1e308, 1.7e308)
    nodes, h = half_offset_grid((1e308, 1.7e308), 16, 2, "n")
    assert np.all(np.isfinite(nodes)) and 0.0 < h < math.inf


def test_grid_step_guard():
    # 2 R^2 h^2 (and h^2) that overflow would drop the second difference, and ones that
    # underflow would divide by zero
    for radius, domain in ((1.0, (1e308, 1.7e308)), (1e200, (0.0, 1.0)), (1.0, (0.0, 1e-170))):
        with pytest.raises(DomainError, match=r"2 R\^2 h\^2"):
            build_hamiltonian(np.cos, radius, domain, 16)
    for domain in ((0.0, 1e200), (0.0, 1e-170)):
        with pytest.raises(DomainError, match="step"):
            ode_residual(np.sin, np.cos, domain, 16)


# every public callable, called with it in its place
CALLABLE_FORMS = {
    "eigensolve.build_hamiltonian[potential]": lambda f: build_hamiltonian(
        f, 1.0, (0.1, 1.0), 16).diagonal.tolist(),
    "eigensolve.eigenvalue_with_refinement[potential]": lambda f: [
        levels.tolist() for levels in eigenvalue_with_refinement(f, 1.0, (0.1, 1.0), 16, 2)],
    "residual.ode_residual[wavefn]": lambda f: ode_residual(f, np.cos, (0.1, 1.0), 16),
    "residual.ode_residual[bracket]": lambda f: ode_residual(np.sin, f, (0.1, 1.0), 16),
    "residual.residual_rate[wavefn]": lambda f: residual_rate(f, np.cos, (0.1, 1.0), 16),
    "residual.residual_rate[bracket]": lambda f: residual_rate(np.sin, f, (0.1, 1.0), 16),
}
# a scalar, a wrong length and an added axis
NOT_NODE_VALUES = (lambda phi: 1.0, lambda phi: np.ones(5), lambda phi: phi[:, None])


@pytest.mark.parametrize("name", CALLABLE_FORMS, ids=CALLABLE_FORMS)
def test_callable_values_guard(name):
    form = CALLABLE_FORMS[name]
    for function in NOT_NODE_VALUES:
        with pytest.raises(DomainError, match=argument_of(name)):
            form(function)
    assert form(lambda phi: np.cos(phi).tolist()) == form(np.cos)


@pytest.mark.parametrize("name", DOMAIN_FORMS, ids=DOMAIN_FORMS)
def test_domain_pair_guard(name):
    for domain in ((0.0, 1.0, 2.0), 1.0):  # three ends, a scalar
        with pytest.raises(DomainError, match="domain"):
            DOMAIN_FORMS[name](domain)
    assert DOMAIN_FORMS[name]([0.1, 1.0]) == DOMAIN_FORMS[name]((0.1, 1.0))


# every system field, called with the value in its place: (the form, values it refuses)
NOT_SCALAR = (1j, 0.5 + 0j, "1.0", None, 10**400)
NOT_BRANCH = ("minus", "plus", None, -1)
NOT_GEOMETRY = (1.0, "g", None)
FIELD_FORMS = {
    "CircleGeometry.radius": (lambda x: CircleGeometry(x), NOT_SCALAR),
    "OscillatorSystem.omega": (lambda x: osc.OscillatorSystem(UNIT, x, 1.5), NOT_SCALAR),
    "OscillatorSystem.k1": (lambda x: osc.OscillatorSystem(UNIT, 1.0, x), NOT_SCALAR),
    "CoulombSystem.mu": (lambda x: cou.CoulombSystem(UNIT, x, 1.0), NOT_SCALAR),
    "CoulombSystem.k1": (lambda x: cou.CoulombSystem(UNIT, 1.0, x), NOT_SCALAR),
    "OscillatorSystem.branch": (lambda b: osc.OscillatorSystem(UNIT, 1.0, 1.5, b), NOT_BRANCH),
    "CoulombSystem.branch": (lambda b: cou.CoulombSystem(UNIT, 1.0, 1.0, b), NOT_BRANCH),
    "OscillatorSystem.geometry": (lambda g: osc.OscillatorSystem(g, 1.0, 1.5), NOT_GEOMETRY),
    "CoulombSystem.geometry": (lambda g: cou.CoulombSystem(g, 1.0, 1.0), NOT_GEOMETRY),
    "PoschlTellerForm.k1": (lambda x: PoschlTellerForm(1.0, 1.0, x), NOT_SCALAR),
}


@pytest.mark.parametrize("name", FIELD_FORMS, ids=FIELD_FORMS)
def test_system_field_guard(name):
    form, refused = FIELD_FORMS[name]
    field = name.split(".")[1]
    for value in refused:
        with pytest.raises(DomainError, match=field):
            form(value)
    if refused is NOT_SCALAR:  # a real number is kept as a float
        kept = getattr(form(np.int64(1)), field)
        assert type(kept) is float and kept == 1.0


# every other real scalar argument (of the paper's parameter map and of ln_gamma_real)
REAL_ARGUMENT_FORMS = {
    "coulomb.duality_parameters[energy]": lambda x: cou.duality_parameters(COU, x),
    "oscillator.reduce_to_poschl_teller[energy]": lambda x: osc.reduce_to_poschl_teller(OSC, x),
    "oscillator.energy_from_reduced[epsilon]": lambda x: osc.energy_from_reduced(OSC, x),
    "specfun.ln_gamma_real[x]": lambda x: specfun.ln_gamma_real(x),
    "specfun.jacobi_scaled[ab_sum]": lambda x: specfun.jacobi_scaled(
        3, x, 0.2, [0.3, 0.5], 0.1, 1.0).tolist(),
    "specfun.jacobi_scaled[ab_product]": lambda x: specfun.jacobi_scaled(
        3, 1.0, x, [0.3, 0.5], 0.1, 1.0).tolist(),
    "validate.validate_system[tolerance]": lambda x: validate.validate_system(
        OSC, 0, 64, x, residual_levels=()),
}


def argument_of(name):
    return name[name.index("[") + 1:-1]


@pytest.mark.parametrize("name", REAL_ARGUMENT_FORMS, ids=REAL_ARGUMENT_FORMS)
def test_real_argument_guard(name):
    form = REAL_ARGUMENT_FORMS[name]
    for value in (*NOT_SCALAR, [1.0, 2.0]):
        with pytest.raises(DomainError, match=argument_of(name)):
            form(value)
    for value in (math.nan, math.inf):  # no form or value is finite there
        with pytest.raises(DomainError):
            form(value)
    assert form(np.int64(2)) == form(2.0)


# every complex scalar argument, called with the value in its place
COMPLEX_ARGUMENT_FORMS = {
    "specfun.ln_gamma_complex[z]": lambda z: specfun.ln_gamma_complex(z),
    "specfun.gamma_abs[z]": lambda z: specfun.gamma_abs(z),
    "specfun.hyp2f1_terminating[b]": lambda b: specfun.hyp2f1_terminating(3, b, 2.0, 0.5),
    "specfun.hyp2f1_terminating[c]": lambda c: specfun.hyp2f1_terminating(3, 1.0, c, 0.5),
    "specfun.hyp1f1_terminating[c]": lambda c: specfun.hyp1f1_terminating(3, c, 0.5),
    "PoschlTellerForm[epsilon]": lambda epsilon: PoschlTellerForm(epsilon, 1.0, 1.0),
    "PoschlTellerForm[k0]": lambda k0: PoschlTellerForm(1.0, k0, 1.0),
}
# strings, None, a list, an integer beyond the doubles and parts that are not finite
NOT_COMPLEX = ("2", "1+1j", None, [2.0], 10**400, complex(math.inf, 0.0),
               complex(0.0, math.nan), math.nan)


@pytest.mark.parametrize("name", COMPLEX_ARGUMENT_FORMS, ids=COMPLEX_ARGUMENT_FORMS)
def test_complex_argument_guard(name):
    form = COMPLEX_ARGUMENT_FORMS[name]
    for value in NOT_COMPLEX:
        with pytest.raises(DomainError, match=argument_of(name)):
            form(value)
    assert form(np.int64(2)) == form(2.0) == form(2.0 + 0j)


# every complex array argument, called with the values in their place
COMPLEX_ARRAY_FORMS = {
    "specfun.hyp2f1_terminating[x]": lambda x: specfun.hyp2f1_terminating(3, 1.0, 2.0, x),
    "specfun.hyp1f1_terminating[y]": lambda y: specfun.hyp1f1_terminating(3, 2.0, y),
}
NOT_NUMBERS = ("0.5", None, [[0.5], [0.6, 0.7]], np.array([0.5, "x"], dtype=object))


@pytest.mark.parametrize("name", COMPLEX_ARRAY_FORMS, ids=COMPLEX_ARRAY_FORMS)
def test_complex_array_guard(name):
    form = COMPLEX_ARRAY_FORMS[name]
    for values in NOT_NUMBERS:
        with pytest.raises(DomainError, match="complex"):
            form(values)
    values = form([0.5, 0.25j, 1])
    assert values.tolist() == [form(0.5), form(0.25j), form(1.0)]


# every norm routine: (it at level n and scale omega R^2 or mu R, its target, largest scale)
NORM_ROUTINES = {
    "oscillator.l2_norm": (
        lambda n, scale: osc.l2_norm(osc.OscillatorSystem(UNIT, scale, 1.5), n), 1.0, 1e2),
    "coulomb.diamond_norm": (
        lambda n, scale: cou.diamond_norm(cou.CoulombSystem(UNIT, scale, 1.0), n), 0.5, 1e3),
    "coulomb.diamond_norm[m]": (
        lambda m, scale: cou.diamond_norm(cou.CoulombSystem(UNIT, scale, 1.0), 0, m), 0.0, 1e3),
}


@pytest.mark.parametrize("name", NORM_ROUTINES, ids=NORM_ROUTINES)
def test_norm_routines_refuse_what_their_rule_does_not_resolve(name):
    # served up to n = 100 and the largest scale; above either the fixed rule drifts
    # silently (1.2e-10 at n = 135, 1.7e-6 at omega R^2 = 300), so it is refused
    norm, target, largest = NORM_ROUTINES[name]
    assert norm(100, 1.0) == pytest.approx(target, abs=1e-11)
    assert norm(100, largest) == pytest.approx(target, abs=1e-8)
    for n, scale in ((101, 1.0), (135, 1.0), (300, 1.0), (0, math.nextafter(largest, math.inf))):
        with pytest.raises(DomainError, match="norm rule"):
            norm(n, scale)


def test_package_import_leaves_numerics_unloaded():
    # the closed forms import numerics only inside their norm routines
    for code in ("import sys, circle_sqm; assert 'circle_sqm.numerics' not in sys.modules",
                 "import circle_sqm.numerics.validate"):
        subprocess.run([sys.executable, "-c", code], check=True)


def test_cli_and_a_solve_leave_fractions_and_numpy_ma_unimported():
    # the contraction gap is exact in integers and the solver sorts its shifts itself
    code = ("import sys, numpy as np, circle_sqm.cli\n"
            "from circle_sqm.numerics import TridiagonalMatrix, lowest_eigenvalues\n"
            "matrix = TridiagonalMatrix(np.arange(16.0), np.ones(15))\n"
            "lowest_eigenvalues(matrix, 2, guess=lowest_eigenvalues(matrix, 2))\n"
            "loaded = {'fractions', 'numpy.ma'} & set(sys.modules)\n"
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_closed_forms_dispatch():
    assert closed_forms(OSC) is osc
    assert closed_forms(COU) is cou
    with pytest.raises(DomainError):
        closed_forms("x")
    with pytest.raises(DomainError):
        spectrum("oscillator", 2)
    with pytest.raises(DomainError):
        validate.validate_system(None, 2, 64, 1e-4)


@settings(max_examples=200)
@given(system_type=st.sampled_from([osc.OscillatorSystem, cou.CoulombSystem]),
       radius=st.floats(0.1, 10.0), coupling=st.floats(0.0, 10.0, exclude_min=True),
       k1=st.floats(0.0, 1.4), minus=st.booleans(), n_max=st.integers(0, 20))
def test_spectrum_rows(system_type, radius, coupling, k1, minus, n_max):
    assume(k1 > 0.0 or system_type is cou.CoulombSystem)
    branch = Branch.MINUS if minus and two_branch(k1) else Branch.PLUS
    rows = spectrum(system_type(CircleGeometry(radius), coupling, k1, branch), n_max)
    keys = [(energy, member.branch.value, n) for n, member, energy in rows]
    assert keys == sorted(keys)
    for n, member, energy in rows:
        assert energy == closed_forms(member).energy_level(member, n)
    families = {Branch.PLUS, Branch.MINUS} if two_branch(k1) else {Branch.PLUS}
    assert {member.branch for _, member, _ in rows} == families
    assert len(rows) == (n_max + 1) * len(families)
