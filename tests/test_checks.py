"""The consistency checks: their numbers, and the one run loop they use."""

import pytest

from stocheuler import checks, cli, dynamics as dyn
from stocheuler.errors import CflViolation, NonFinite

# float.hex() of the reduced checks below, as their hand-rolled stepping
# loops gave them before the checks ran on integrate_trajectory
TRANSFORM_ERRORS = ["0x1.15012512d94a7p-4", "0x1.ca5ea0b45c574p-5",
                    "0x1.8bf59b14c0288p-6"]
CONSERVATION_DRIFTS = ["0x1.9f5877bb0a31fp-52", "0x1.ffcafa55a7a04p-24"]
# the driver samples curl u on the grid and accumulates t, so the excess
# moved in its last bits
VORTICITY_EXCESS = 1.002563736124195


def test_transform_errors_and_conservation_drifts_keep_their_bits():
    res = checks.transform_equivalence_check(n=16, T=0.1,
                                             dts=(1e-2, 5e-3, 2.5e-3))
    assert [e.hex() for e in res.errors] == TRANSFORM_ERRORS
    res = checks.conservation_check(n=16, T=0.1, dt=5e-3)
    assert [res.energy_drift.hex(),
            res.enstrophy_l4_drift.hex()] == CONSERVATION_DRIFTS


def test_vorticity_decay_reads_the_driver_samples():
    res = checks.vorticity_decay_check(n=32, T=0.2, sample_every=10)
    assert res.max_excess == pytest.approx(VORTICITY_EXCESS, rel=1e-12)
    assert res.times == pytest.approx([0.0, 0.05, 0.1, 0.15, 0.2])
    assert res.envelope[0] == res.sup_w[0]


def test_checks_step_only_through_the_trajectory_driver(monkeypatch):
    assert not {"SimState", "step_em", "step_rk4",
                "step_transformed"} & set(vars(checks))
    runs = []
    real = dyn.integrate_trajectory

    def counted(cfg, ids, increments):
        runs.append((cfg.integrator, increments.shape))
        return real(cfg, ids, increments)

    monkeypatch.setattr(checks, "integrate_trajectory", counted)
    checks.transform_equivalence_check(n=16, T=0.02, dts=(1e-2, 5e-3))
    checks.vorticity_decay_check(n=16, T=0.02, dt=1e-2)
    checks.conservation_check(n=16, T=0.02, dt=1e-2)
    assert runs == [("em", (1, 2, 1)), ("transformed", (1, 2, 1)),
                    ("em", (1, 4, 1)), ("transformed", (1, 4, 1)),
                    ("transformed", (1, 2, 1)), ("rk4", (1, 2, 0))]


def test_a_check_path_that_blows_up_or_fails_raises(monkeypatch, capsys):
    # the driver records a blow-up or a failure; the check raises it, and
    # the CLI exits as a stepper's error made it exit
    def transform_check(*dts):
        return cli.main(["transform-check", "--n", "16", "--T", "1",
                         "--dt-list", ",".join(dts), "--quiet"])

    with pytest.raises(CflViolation):
        checks.conservation_check(n=16, T=1.0, dt=0.5)
    assert transform_check("0.5", "0.25") == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith("cfl violation: ")
    monkeypatch.setattr(dyn, "BLOWUP_LEVEL", 0.5)  # below the initial norm
    with pytest.raises(NonFinite, match="blew up at t=0.0"):
        checks.conservation_check(n=16, T=0.02, dt=1e-2)
    assert transform_check("0.01", "0.005") == cli.EXIT_SCIENCE
    assert capsys.readouterr().err.startswith("non-finite result: ")
