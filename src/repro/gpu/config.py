"""GPU hardware configuration (paper Table 2).

The baseline mobile GPU reproduces the paper's ATTILA-sim reconfiguration
referencing an ARM Mali-G76-class part: 8 unified shaders, each with 8
SIMD4-scale ALU groups (modelled as SIMD4 lanes), a 16 KB unified L1 per
shader, one texture unit per shader with 4x anisotropic filtering, a 16x16
tiled rasteriser, a shared 256 KB 8-way L2 and an 8-channel DRAM interface
moving 16 bytes per cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro import constants
from repro.errors import ConfigurationError

__all__ = ["GPUConfig", "RemoteServerConfig", "MOBILE_BASELINE", "REMOTE_BASELINE"]


@dataclass(frozen=True)
class GPUConfig:
    """Mobile GPU configuration (Table 2 baseline by default).

    Attributes
    ----------
    frequency_mhz:
        Core clock; the sensitivity study sweeps {300, 400, 500}.
    num_shaders:
        Unified shader cores.
    simd_width:
        Lanes per shader issue (SIMD4-scale ALUs).
    alu_groups_per_shader:
        SIMD groups issuing per cycle in each shader.
    l1_kb, l2_kb, l2_ways:
        Cache hierarchy sizes.
    texture_units_per_shader, anisotropic_taps:
        Texture sampling resources.
    raster_tile_px:
        Tiled rasterisation granularity (16x16).
    dram_bytes_per_cycle, dram_channels:
        Memory interface width.
    """

    frequency_mhz: float = constants.DEFAULT_GPU_FREQ_MHZ
    num_shaders: int = 8
    simd_width: int = 4
    alu_groups_per_shader: int = 8
    l1_kb: int = 16
    l2_kb: int = 256
    l2_ways: int = 8
    texture_units_per_shader: int = 1
    anisotropic_taps: int = 4
    raster_tile_px: int = constants.RASTER_TILE_PX
    dram_bytes_per_cycle: int = 16
    dram_channels: int = 8

    def __post_init__(self) -> None:
        if not math.isfinite(self.frequency_mhz) or self.frequency_mhz <= 0:
            raise ConfigurationError(
                f"frequency must be finite and > 0, got {self.frequency_mhz}"
            )
        for field_name in (
            "num_shaders",
            "simd_width",
            "alu_groups_per_shader",
            "l1_kb",
            "l2_kb",
            "l2_ways",
            "texture_units_per_shader",
            "anisotropic_taps",
            "raster_tile_px",
            "dram_bytes_per_cycle",
            "dram_channels",
        ):
            if getattr(self, field_name) <= 0:
                raise ConfigurationError(
                    f"{field_name} must be positive, got {getattr(self, field_name)}"
                )

    @property
    def frequency_hz(self) -> float:
        """Core clock in Hz."""
        return self.frequency_mhz * 1e6

    @property
    def shading_lanes(self) -> int:
        """Total scalar shading lanes issuing per cycle."""
        return self.num_shaders * self.simd_width * self.alu_groups_per_shader

    @property
    def shading_rate_per_ms(self) -> float:
        """Scalar shader cycles retired per millisecond (all lanes)."""
        return self.shading_lanes * self.frequency_hz / 1000.0

    @property
    def dram_bandwidth_bytes_per_ms(self) -> float:
        """DRAM bandwidth in bytes per millisecond.

        The memory interface is clocked with the core in ATTILA's model:
        ``bytes/cycle * channels * core clock``.
        """
        return self.dram_bytes_per_cycle * self.dram_channels * self.frequency_hz / 1000.0

    def at_frequency(self, frequency_mhz: float) -> "GPUConfig":
        """Return a copy of this configuration at another core clock."""
        return replace(self, frequency_mhz=frequency_mhz)


@dataclass(frozen=True)
class RemoteServerConfig:
    """Chiplet-based multi-GPU rendering server (Sec. 5, after OO-VR).

    Attributes
    ----------
    num_gpus:
        MCM GPU count (the paper scales to 8).
    per_gpu_speedup:
        Single remote GPU throughput relative to the mobile baseline.
    scaling_efficiency:
        Parallel-rendering efficiency per doubling (NUMA penalty); OO-VR
        reports near-linear scaling with locality optimisations, so the
        default is mildly sub-linear.
    encode_rate_px_per_ms:
        Hardware video-encoder throughput (NVENC-class, per-eye streams
        encoded in parallel): ~2.5 Mpixel per millisecond.
    """

    num_gpus: int = 8
    per_gpu_speedup: float = 6.0
    scaling_efficiency: float = 0.92
    encode_rate_px_per_ms: float = 2.5e6

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigurationError(f"num_gpus must be >= 1, got {self.num_gpus}")
        if self.per_gpu_speedup <= 0:
            raise ConfigurationError(
                f"per_gpu_speedup must be > 0, got {self.per_gpu_speedup}"
            )
        if not 0 < self.scaling_efficiency <= 1:
            raise ConfigurationError(
                f"scaling_efficiency must be in (0, 1], got {self.scaling_efficiency}"
            )
        if self.encode_rate_px_per_ms <= 0:
            raise ConfigurationError("encode_rate_px_per_ms must be > 0")

    @property
    def effective_speedup(self) -> float:
        """Aggregate speedup over the mobile GPU across all chiplets."""
        import math

        doublings = math.log2(self.num_gpus) if self.num_gpus > 1 else 0.0
        return self.per_gpu_speedup * self.num_gpus * self.scaling_efficiency**doublings


#: The Table 2 mobile baseline at 500 MHz.
MOBILE_BASELINE = GPUConfig()

#: The default 8-GPU MCM remote server.
REMOTE_BASELINE = RemoteServerConfig()
