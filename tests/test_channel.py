"""Each radial channel's constants are written once, in radial.radial_channel.

The record gives a channel's lowest label, its sigma (the Sturmian power and
the realization constant), its Laguerre order and its Bargmann index.  The
Sturmian term and the closed-form coherent state built from it carry the
same doubles as the per-channel formulas below, compared with ==; and no
module other than radial.py decides anything by comparing with "u" or "v".
"""

import ast
import cmath
import math
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import dirac_coulomb
from dirac_coulomb import DomainError, NonNormalizable, radial_channel, sturmian, sturmian_coherent
from dirac_coulomb.coherent import _sqrt_gamma
from reference import sturmian_term
from dirac_coulomb.special import log_gamma

CHANNELS = ("u", "v")


def per_channel_term(channel, n, s):
    """(coef, power, degree, alpha) of the Sturmian term, one formula per channel."""
    if channel == "v":
        norm = 2.0 * math.exp(0.5 * (log_gamma(n) - log_gamma(n + 2.0 * s + 1.0)))
        return norm * 2.0**s, s, n - 1, 2.0 * s + 1.0
    norm = 2.0 * math.exp(0.5 * (log_gamma(n + 1.0) - log_gamma(n + 2.0 * s)))
    return norm * 2.0 ** (s - 1.0), s - 1.0, n, 2.0 * s - 1.0


def per_channel_coherent(channel, s, xi):
    """(coef, power, decay) of the closed-form coherent state, one formula per
    channel; None where the coefficient leaves the double range."""
    one_m = 1.0 - abs(xi) ** 2
    try:
        if channel == "v":
            coef = 2.0 * one_m ** (s + 1.0) / _sqrt_gamma(2.0 * s + 2.0)
            coef = coef * 2.0**s * (1.0 - xi) ** (-(2.0 * s + 2.0))
        else:
            coef = 2.0 * one_m**s / _sqrt_gamma(2.0 * s)
            coef = coef * 2.0 ** (s - 1.0) * (1.0 - xi) ** (-2.0 * s)
    except OverflowError:
        return None
    return coef, s if channel == "v" else s - 1.0, (1.0 + xi) / (1.0 - xi)


log_uniform_s = st.floats(min_value=math.log(1e-3), max_value=math.log(600.0)).map(math.exp)


@given(s=log_uniform_s, n=st.integers(min_value=0, max_value=2000),
       mod=st.floats(min_value=0.0, max_value=0.95), phase=st.floats(min_value=-math.pi, max_value=math.pi))
@example(s=0.3, n=0, mod=0.5, phase=1.0)  # s - 1.0 rounds: sigma + 1.0 is not s here
@example(s=1e-3, n=2000, mod=0.0, phase=0.0)
@example(s=600.0, n=1, mod=0.9, phase=-2.0)
def test_record_derived_values_are_the_per_channel_formulas(s, n, mod, phase):
    xi = mod * cmath.exp(1j * phase)
    for channel in CHANNELS:
        ch = radial_channel(channel, s)
        if n >= ch.lowest:
            term = sturmian_term(channel, n, s)
            assert (term.coef, term.power, term.degree, term.alpha) == per_channel_term(channel, n, s)
            assert (term.decay, term.argscale) == (1.0, 2.0)
            assert sturmian(channel, n, s).terms == ((term,) if term.coef != 0.0 else ())
        want = per_channel_coherent(channel, s, xi)
        if want is None:
            with pytest.raises(NonNormalizable):
                sturmian_coherent(channel, s, xi)
        else:  # a coefficient that underflows to 0 leaves no term
            got = [(t.coef, t.power, t.decay) for t in sturmian_coherent(channel, s, xi).terms]
            assert got == ([want] if want[0] != 0.0 else [])


@pytest.mark.parametrize("name", ["w", "U", "", None])
def test_the_record_rejects_an_unknown_channel(name):
    with pytest.raises(DomainError, match="channel must be 'u' or 'v'"):
        radial_channel(name, 1.0)


def channel_name_comparisons(tree):
    """Line numbers of comparisons with the string "u" or "v", bare or in a literal tuple, list or set."""
    def names(node):
        if isinstance(node, ast.Constant):
            return node.value in CHANNELS
        return isinstance(node, (ast.Tuple, ast.List, ast.Set)) and any(names(e) for e in node.elts)

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and any(names(e) for e in [node.left, *node.comparators]))


def test_only_radial_compares_with_a_channel_name():
    package = Path(dirac_coulomb.__file__).parent
    found = {path.name: lines for path in sorted(package.glob("*.py")) if path.name != "radial.py"
             for lines in [channel_name_comparisons(ast.parse(path.read_text(encoding="utf-8")))] if lines}
    assert found == {}
    # the walk does see such a comparison
    assert channel_name_comparisons(ast.parse('k = 1 if channel == "v" else 0\nok = c not in ("u", "v")')) == [1, 2]
