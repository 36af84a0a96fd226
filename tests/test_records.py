"""The package's result records: keyword construction, defaults, value
equality, hashing (where every field hashes) and immutability."""

from fractions import Fraction

import pytest

from dzeta import cli, identities, numverify, pfseries, tausolver
from dzeta.symfield import SymNumber, Unknown, zeta_value

_ZETA3 = zeta_value(3)

# record class -> keyword arguments naming every field
RECORDS = {
    cli.RunConfig: dict(k=3, k_max=5, m_set=(1,), trunc=60, digits=15,
                        tolerance=1e-9, out_dir="out", fmt="json", mode="fast",
                        style="pi-power"),
    identities.IdentityRecord: dict(kind="dzv", k=2, m=1, point=-1,
                                    target=Unknown("dzv", 2, 1), value=_ZETA3,
                                    provenance="direct", weight=3),
    identities.FourierIdentity: dict(constant=_ZETA3, linear=SymNumber.p_power(1),
                                     quadratic=SymNumber.pi_power(2)),
    numverify.NumericReport: dict(identity="zeta(2,1)@-1", lhs="1.2", rhs="1.2",
                                  abs_error=0.0, rel_error=0.0, tail_bound=1e-20,
                                  tolerance=1e-8, passed=True),
    pfseries.PFOperator: dict(order=1, chart=pfseries.CHART_INV,
                              coeffs=((0, 1), (1,))),
    pfseries.LogSeries: dict(chart=pfseries.CHART_PHI,
                             blocks=((Fraction(1), Fraction(1, 2)),),
                             valid_order=1),
    tausolver.MomentSystem: dict(
        k=2, m=1, rows=(tausolver.MomentRow(0, (_ZETA3,), _ZETA3),)),
    tausolver.TauVector: dict(k=2, m=1, entries=(_ZETA3, SymNumber.zero()),
                              provenance="fast", conjectural=True),
    tausolver.ConjectureReport: dict(
        m=1, k_max=3, checks=(tausolver.ConjectureCheck(3, True, 0.1, 0.01),)),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_an_immutable_value(cls):
    kwargs = RECORDS[cls]
    record, twin = cls(**kwargs), cls(**kwargs)
    assert {name: getattr(record, name) for name in kwargs} == kwargs
    assert record == twin
    assert record != cls(**{**kwargs, next(iter(kwargs)): None})
    try:
        for value in kwargs.values():
            hash(value)
    except TypeError:  # SymNumber defines equality only; so do its records
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1
    with pytest.raises(AttributeError):
        setattr(record, next(iter(kwargs)), None)


def test_record_defaults():
    tau = tausolver.TauVector(2, 1, (_ZETA3,))
    assert tau.provenance == "direct"
    assert tau.conjectural is False
    cfg = cli.RunConfig()
    assert (cfg.k, cfg.k_max, cfg.m_set, cfg.trunc, cfg.digits, cfg.tolerance,
            cfg.out_dir, cfg.fmt, cfg.mode, cfg.style) \
        == (2, None, (1, 2), 200, 12, 1e-8, None, "plain", "direct", "even-zeta")
