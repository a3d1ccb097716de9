"""JIT-flush energy and backup-power sizing (Section 7.13, Table 5).

The paper prices moving one byte from SRAM to NVM at 11.839 nJ (measured by
prior work with external power meters) and sizes the backup source from the
energy densities of micro-supercapacitors (1e-4 Wh/cm³) and Li-thin
batteries (1e-2 Wh/cm³):

* PPA flushes ≤1838 B → 21.7 µJ → 0.06 mm³ supercap / 0.0006 mm³ Li-thin;
* Capri flushes its 54 KB per-core redo buffer → ≈0.6 mJ;
* LightPC flushes user-process registers (4224 B), L1D (64 KB), and the
  16 MB L2 all the way to PCM → ≈189 mJ.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig, skylake_default
from repro.core.checkpoint import ENERGY_NJ_PER_BYTE, structure_sizes
from repro.hwcost.cacti import CORE_AREA_MM2

SUPERCAP_WH_PER_CM3 = 1e-4
LI_THIN_WH_PER_CM3 = 1e-2
_J_PER_WH = 3600.0
_MM3_PER_CM3 = 1000.0

CAPRI_REDO_BUFFER_BYTES = 54 << 10
LIGHTPC_REGISTER_BYTES = 4224          # 16 GPRs + 32 XMM per §7.13
LIGHTPC_L1D_BYTES = 64 << 10
LIGHTPC_L2_BYTES = 16 * 1000 * 1000    # the paper uses decimal 16 MB


def flush_energy_uj(num_bytes: int) -> float:
    """Energy (µJ) to move ``num_bytes`` from SRAM into NVM."""
    if num_bytes < 0:
        raise ValueError("byte count cannot be negative")
    return num_bytes * ENERGY_NJ_PER_BYTE * 1e-3


def supercap_volume_mm3(energy_uj: float) -> float:
    """Micro-supercapacitor volume holding ``energy_uj``."""
    joules = energy_uj * 1e-6
    return joules / (SUPERCAP_WH_PER_CM3 * _J_PER_WH / _MM3_PER_CM3)


def li_thin_volume_mm3(energy_uj: float) -> float:
    """Li-thin battery volume holding ``energy_uj``."""
    joules = energy_uj * 1e-6
    return joules / (LI_THIN_WH_PER_CM3 * _J_PER_WH / _MM3_PER_CM3)


@dataclass(frozen=True)
class EnergyBudget:
    """One scheme's JIT-flush requirement (a Table 5 row)."""

    scheme: str
    model: str                 # "WSP" or "PSP"
    flush_bytes: int
    energy_uj: float
    supercap_mm3: float
    li_thin_mm3: float

    @property
    def supercap_core_ratio(self) -> float:
        return self.supercap_mm3 / CORE_AREA_MM2


def _budget(scheme: str, model: str, flush_bytes: int) -> EnergyBudget:
    energy = flush_energy_uj(flush_bytes)
    return EnergyBudget(
        scheme=scheme, model=model, flush_bytes=flush_bytes,
        energy_uj=energy,
        supercap_mm3=supercap_volume_mm3(energy),
        li_thin_mm3=li_thin_volume_mm3(energy),
    )


def ppa_energy(config: SystemConfig | None = None) -> EnergyBudget:
    """PPA's worst-case JIT checkpoint (five structures)."""
    cfg = config if config is not None else skylake_default()
    return _budget("PPA", "WSP", structure_sizes(cfg).total)


def capri_energy() -> EnergyBudget:
    """Capri's per-core battery-backed redo buffer flush."""
    return _budget("Capri", "WSP", CAPRI_REDO_BUFFER_BYTES)


def lightpc_energy() -> EnergyBudget:
    """LightPC's flush of user-process registers plus L1D and L2."""
    return _budget("LightPC", "PSP",
                   LIGHTPC_REGISTER_BYTES + LIGHTPC_L1D_BYTES
                   + LIGHTPC_L2_BYTES)


def wsp_energy_table(config: SystemConfig | None = None) -> list[EnergyBudget]:
    """All three rows of Table 5."""
    return [ppa_energy(config), capri_energy(), lightpc_energy()]
