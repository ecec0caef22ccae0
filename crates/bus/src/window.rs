//! Backend kinds and capability windows.

use ntt_pim::engine::batch::NttJob;
use ntt_pim::engine::EngineError;
use std::fmt;

/// Which family a backend belongs to. Kinds are coarse — routing and
/// reporting group by them; capability details live in the per-backend
/// [`CapabilityWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The bank-parallel DRAM PIM device simulator.
    Pim,
    /// The host CPU running the lane-batched (SoA) kernels.
    CpuLanes,
    /// A published accelerator model: golden-path compute, published
    /// datapoint timing.
    Published,
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::Pim => "pim",
            BackendKind::CpuLanes => "cpu-lanes",
            BackendKind::Published => "published",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "pim" => Ok(BackendKind::Pim),
            "cpu-lanes" => Ok(BackendKind::CpuLanes),
            "published" => Ok(BackendKind::Published),
            other => Err(format!(
                "unknown backend kind `{other}` (expected `pim`, `cpu-lanes`, or `published`)"
            )),
        }
    }
}

/// What a backend honestly supports — the workspace's one capability
/// window type, reported by every [`crate::NttBackend`] and its
/// [`crate::BusCostModel`] so routers and admission control can reject a
/// job *before* it reaches the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapabilityWindow {
    /// Whether the modulus can vary per job.
    pub arbitrary_modulus: bool,
    /// For fixed-modulus hardware, the one modulus its published
    /// numbers are valid for (`None` when `arbitrary_modulus`).
    pub native_modulus: Option<u64>,
    /// Coefficient datapath width in bits.
    pub bitwidth: u32,
    /// Largest supported transform length (`None` = unbounded).
    pub max_n: Option<usize>,
    /// Independent execution lanes one batch can fan across (total
    /// banks for PIM, SIMD lane width for the CPU, 1 for serial
    /// published models).
    pub lanes: usize,
}

impl CapabilityWindow {
    /// Checks `job` against this window. Violations are typed
    /// [`EngineError::Unsupported`] errors naming `backend` — never a
    /// panic — so a router can fall through to the next candidate.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] naming the failed capability.
    pub fn admits(&self, backend: &str, job: &NttJob) -> Result<(), EngineError> {
        let n = job.n();
        let q = job.q;
        let unsupported = |reason: String| EngineError::Unsupported {
            engine: backend.to_string(),
            n,
            q,
            reason,
        };
        if let Some(max) = self.max_n {
            if n > max {
                return Err(unsupported(format!("length {n} exceeds max N {max}")));
            }
        }
        if self.bitwidth < 64 && q >= (1u64 << self.bitwidth) {
            return Err(unsupported(format!(
                "q={q} exceeds the {}-bit datapath",
                self.bitwidth
            )));
        }
        if let Some(native) = self.native_modulus {
            if q != native {
                return Err(unsupported(format!(
                    "fixed-modulus device (native q={native})"
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for CapabilityWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bit, modulus {}, max N {}, {} lanes",
            self.bitwidth,
            match self.native_modulus {
                Some(q) => q.to_string(),
                None => "arbitrary".into(),
            },
            match self.max_n {
                Some(n) => n.to_string(),
                None => "unbounded".into(),
            },
            self.lanes
        )
    }
}
