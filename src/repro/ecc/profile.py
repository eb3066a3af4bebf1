"""Chipset profiles: named hardware configurations for the machine.

A :class:`ChipsetProfile` bundles the hardware knobs SafeMem's
detection story depends on — which ECC codec the memory controller
runs, how often the background scrubber sweeps, and how noisy the
DIMMs are (the fault-injection rate experiments use to model naturally
occurring single-bit upsets).  Profiles are the single selection point
threaded through ``Machine``, ``MonitorStackConfig`` and the CLI
(``--profile``), so "run this workload on chipkill hardware" is one
flag rather than three constructor arguments.

The registry is intentionally small and literal: every entry here must
be documented in the hardware-diversity matrix (``docs/HARDWARE.md``)
— ``tools/docs_check.py`` enforces the pairing in both directions.
"""

from dataclasses import dataclass

from repro.common.constants import CYCLES_PER_MICROSECOND
from repro.common.errors import ConfigurationError
from repro.ecc.codec import CODECS, get_codec

#: Profile every machine boots with unless told otherwise: the paper's
#: Intel E7500 with its SEC-DED (72,64) code.
DEFAULT_PROFILE = "e7500"


@dataclass(frozen=True)
class ChipsetProfile:
    """One named hardware configuration.

    ``fault_noise`` is the simulated background single-bit-upset rate
    in flips per million ECC-group reads; the codec tradeoff
    experiment injects exactly this rate (deterministically seeded) to
    measure each code's correction behaviour under load.
    """

    name: str
    codec: str = "secded"
    scrub_interval_cycles: int = 2000 * CYCLES_PER_MICROSECOND
    fault_noise: float = 0.0

    def validate(self):
        """Raise ConfigurationError on an impossible configuration."""
        if self.codec not in CODECS:
            raise ConfigurationError(
                f"profile {self.name!r} names unknown codec "
                f"{self.codec!r}; choose from {tuple(sorted(CODECS))}"
            )
        if self.scrub_interval_cycles <= 0:
            raise ConfigurationError(
                f"profile {self.name!r} needs a positive scrub "
                f"interval, got {self.scrub_interval_cycles}"
            )
        if self.fault_noise < 0:
            raise ConfigurationError(
                f"profile {self.name!r} needs a non-negative fault "
                f"noise rate, got {self.fault_noise}"
            )
        return self

    def build_codec(self):
        """The (shared) codec instance this profile runs."""
        return get_codec(self.codec)


#: Registered chipset profiles by name.  Keep literal — docs_check
#: greps these ``name=`` entries against docs/HARDWARE.md.
PROFILES = {
    profile.name: profile.validate()
    for profile in (
        ChipsetProfile(
            name="e7500",
            codec="secded",
            scrub_interval_cycles=2000 * CYCLES_PER_MICROSECOND,
            fault_noise=1.0,
        ),
        ChipsetProfile(
            name="daec-server",
            codec="secdaec",
            scrub_interval_cycles=1000 * CYCLES_PER_MICROSECOND,
            fault_noise=2.0,
        ),
        ChipsetProfile(
            name="chipkill-server",
            codec="chipkill",
            scrub_interval_cycles=4000 * CYCLES_PER_MICROSECOND,
            fault_noise=4.0,
        ),
    )
}


def profile_names():
    """Names of every registered profile, sorted."""
    return tuple(sorted(PROFILES))


def get_profile(name):
    """Resolve a profile by name (or pass an instance through)."""
    if isinstance(name, ChipsetProfile):
        return name.validate()
    if name is None:
        name = DEFAULT_PROFILE
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown chipset profile {name!r}; choose from "
            f"{profile_names()}"
        ) from None
