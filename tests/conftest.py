import math

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from batsim.abilities import AbilityVector


@st.composite
def ability_vectors(draw):
    """Valid ability vectors with realistic-ish magnitudes and out mass."""
    positives = [draw(st.floats(0.001, 0.12)) for _ in range(5)]
    outs = [draw(st.floats(0.05, 0.40)) for _ in range(3)]
    total = math.fsum(positives + outs)
    comps = [v / total for v in positives + outs]
    # Normalization leaves a float crumb; fold it into the last component.
    comps[-1] += 1.0 - math.fsum(comps)
    return AbilityVector(*comps)


# test_cli.py's contract test runs under cli-contract in Tier-1, and under
# cli-contract-deep, with ten times the examples, when pytest is given
# --hypothesis-profile=cli-contract-deep.  Both are derandomized, so every
# run draws the same commands.
CONTRACT_EXAMPLES = 150
settings.register_profile("cli-contract", derandomize=True, deadline=None,
                          max_examples=CONTRACT_EXAMPLES,
                          suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("cli-contract-deep", settings.get_profile("cli-contract"),
                          max_examples=10 * CONTRACT_EXAMPLES)
