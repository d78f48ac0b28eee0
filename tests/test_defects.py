"""Planted defects and the verify rows that catch them.

Each defect is a monkeypatch of one package function, never an edit to the
package. Each runs through ``cli.run`` of ``verify --suite all`` at default
flags, and the test asserts the exact set of rows whose verdict it flips
against the unpatched run of the same weight.
"""

import pytest

from disklab import MomentTable, TaylorSeries, cli, dbr, dirichlet, moments, quadrature, weights
from disklab.cli import parse_args, run

_WEIGHTS = ("harm:1,0", "log:0.4,0")


def _coefficient_scaled(s: TaylorSeries, k: int, eps: float) -> TaylorSeries:
    c = s.array.copy()
    c[k] *= 1.0 + eps
    return TaylorSeries(c)


# name -> (a, b) -> (a', b'), applied to every closed-form factor pair
_FACTOR_DEFECTS = {
    "b-scaled-1e-5": lambda a, b: (a, b.scale(1 + 1e-5)),
    "a-scaled-1e-5": lambda a, b: (a.scale(1 + 1e-5), b),
    "a-and-b-scaled-1e-5": lambda a, b: (a.scale(1 + 1e-5), b.scale(1 + 1e-5)),
    "b3-scaled-1e-3": lambda a, b: (a, _coefficient_scaled(b, 3, 1e-3)),
    # modulus 1 on the circle and phi = b/a unchanged: only the Gram sees it
    "common-inner-factor-z": lambda a, b: (a.shift(), b.shift()),
}

# the rows each defect flips, on every weight of _WEIGHTS
_FLIPS = {
    "b-scaled-1e-5": {"outer-consistency"},
    "a-scaled-1e-5": {"outer-consistency"},
    "a-and-b-scaled-1e-5": {"outer-consistency"},
    "b3-scaled-1e-3": {"outer-consistency"},
    "common-inner-factor-z": {"isometry-gap"},
}


def _verdicts(spec: str) -> dict[str, bool]:
    report, _ = run(parse_args(["verify", "--suite", "all", "--weight", spec]))
    return {c.name: c.passed for c in report.checks}


def _flipped(spec: str, clean_verdicts) -> set[str]:
    """The rows whose verdict differs from the unpatched run of the weight."""
    verdicts = _verdicts(spec)
    assert list(verdicts) == list(clean_verdicts[spec])
    return {name for name, ok in verdicts.items() if ok != clean_verdicts[spec][name]}


@pytest.fixture(scope="module")
def clean_verdicts():
    return {spec: _verdicts(spec) for spec in _WEIGHTS}


def test_every_catalog_row_passes_unpatched(clean_verdicts):
    for spec, verdicts in clean_verdicts.items():
        assert all(verdicts.values()), spec


@pytest.mark.parametrize("spec", _WEIGHTS)
@pytest.mark.parametrize("defect", _FACTOR_DEFECTS)
def test_a_factor_defect_flips_exactly_its_rows(defect, spec, clean_verdicts, monkeypatch):
    real = dbr._one_atom_factors
    plant = _FACTOR_DEFECTS[defect]
    monkeypatch.setattr(dbr, "_one_atom_factors", lambda p, order: plant(*real(p, order)))
    assert _flipped(spec, clean_verdicts) == _FLIPS[defect]


def _scaled_W(W, value_range):
    return W * (1 + 1e-7), value_range


# name -> (defining module, function name, real -> planted): the planted
# function replaces the real one in every module that binds the name
_MASS_DEFECTS = {
    # the mass l1_norm reads, and every moment the ring pass gives
    "ring-pass-W-scaled-1e-7": (moments, "_ring_moments", lambda real:
                                lambda w, grid, order: _scaled_W(*real(w, grid, order))),
    # the blocked sum, which only the mass's cross-check reads
    "integrate-scaled-1e-7": (quadrature, "integrate", lambda real:
                              lambda grid, f: real(grid, f) * (1 + 1e-7)),
}

# the rows each mass defect flips, on every weight of _WEIGHTS: the cross-check
# alone, at 4.2e-8 to 1.0e-7 against 1e-9; l1-quadrature-consistency reads
# 9.8e-8 to 1.0e-7 under the ring defect, inside its 1e-4
_MASS_FLIPS = {
    "ring-pass-W-scaled-1e-7": {"energy-of-identity-vs-mass"},
    "integrate-scaled-1e-7": {"energy-of-identity-vs-mass"},
}


@pytest.mark.parametrize("spec", _WEIGHTS)
@pytest.mark.parametrize("defect", _MASS_DEFECTS)
def test_a_mass_defect_flips_exactly_its_rows(defect, spec, clean_verdicts, monkeypatch):
    home, attr, plant = _MASS_DEFECTS[defect]
    planted = plant(getattr(home, attr))
    for module in (quadrature, moments, cli):
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, planted)
    assert _flipped(spec, clean_verdicts) == _MASS_FLIPS[defect]


def _entry_bumped(t: MomentTable) -> MomentTable:
    re = t.re.copy()
    re[1, 2] += 1
    return MomentTable._from_parts(re, t.im, t.denom, t.provenance)


# every module that binds dirichlet.energy, its home first
_ENERGY_HOMES = (dirichlet, dbr, cli)

# name -> (homes, function name, real -> planted), for rows no other planted
# defect reaches: the planted function replaces the real one in every home,
# the first home being where the real one is read
_ROW_DEFECTS = {
    # every Berezin value the two h rows read
    "berezin-scaled-1e-3": ((dbr,), "berezin_transforms", lambda real:
                            lambda w, points, grid: real(w, points, grid) * (1 + 1e-3)),
    # every circle mean of the superharmonic lattice
    "circle-mean-scaled-1e-6": ((weights,), "_circle_mean", lambda real:
                                lambda w, center, r, u: real(w, center, r, u) * (1 + 1e-6)),
    # every value of an atomic weight, on every grid and circle; at 1 + 1e-6
    # no row flips
    "atomic-value-scaled-1e-3": ((weights.AtomicWeight,), "_value_block", lambda real:
                                 lambda self, z: real(self, z) * (1 + 1e-3)),
    # one numerator entry of every exact point table
    "point-moment-re12-plus-1": ((moments, cli), "point_moments", lambda real:
                                 lambda d, order: _entry_bumped(real(d, order))),
    # every energy, raised to a power: no longer quadratic in f
    "energy-power-1.001": (_ENERGY_HOMES, "energy", lambda real:
                           lambda f, w, grid: real(f, w, grid) ** 1.001),
    # a term of degree one in the non-constant coefficients
    "energy-plus-1e-3-sum-fn": (_ENERGY_HOMES, "energy", lambda real:
                                lambda f, w, grid: real(f, w, grid)
                                + 1e-3 * float(abs(f.array[1:]).sum())),
    # a charge on the constant term, which carries no energy
    "energy-plus-1e-3-f0-squared": (_ENERGY_HOMES, "energy", lambda real:
                                    lambda f, w, grid: real(f, w, grid)
                                    + 1e-3 * abs(f.array[0]) ** 2),
    # energy * (1 + 1e-3) flips no row, and is left out: energy-quadratic-scaling
    # and energy-constant-zero do not see a constant factor, and isometry-gap
    # reads 4.5e-4 on harm:1,0 and 5.0e-4 on log:0.4,0 against 1e-2
}

# the rows each row defect flips, on every weight of _WEIGHTS: h-identity and
# phi-consistency read 1.9e-2 and 4.1e-3 on harm:1,0 against 1e-4,
# superharmonic-lattice 2.6e-6 on harm:1,0 and 1.3e-6 on log:0.4,0 against
# 1e-8, l1-quadrature-consistency 1.0e-3 against 1e-4 under the atomic-value
# defect, and point-forward-exact and point-tensor-vanishing 1.3e-3 and 4.19e7
# against 0 under the point-moment one; energy-quadratic-scaling 1.39e-3 under
# the power and 3.9e-4 (harm:1,0) and 1.19e-3 (log:0.4,0) under the degree-one
# term, and energy-constant-zero 0.01225 under the constant's charge, each
# against 1e-12
_ROW_FLIPS = {
    "berezin-scaled-1e-3": {"h-identity", "phi-consistency"},
    "circle-mean-scaled-1e-6": {"superharmonic-lattice"},
    "atomic-value-scaled-1e-3": {"h-identity", "l1-quadrature-consistency", "phi-consistency"},
    "point-moment-re12-plus-1": {"point-forward-exact", "point-tensor-vanishing"},
    "energy-power-1.001": {"energy-quadratic-scaling"},
    "energy-plus-1e-3-sum-fn": {"energy-quadratic-scaling"},
    "energy-plus-1e-3-f0-squared": {"energy-constant-zero"},
}


@pytest.mark.parametrize("spec", _WEIGHTS)
@pytest.mark.parametrize("defect", _ROW_DEFECTS)
def test_a_row_defect_flips_exactly_its_rows(defect, spec, clean_verdicts, monkeypatch):
    homes, attr, plant = _ROW_DEFECTS[defect]
    planted = plant(getattr(homes[0], attr))
    for home in homes:
        monkeypatch.setattr(home, attr, planted)
    assert _flipped(spec, clean_verdicts) == _ROW_FLIPS[defect]
