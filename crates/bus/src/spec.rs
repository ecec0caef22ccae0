//! Parseable backend fleet descriptions (`"pim:2,cpu-lanes:1,bp-ntt:1"`).
//!
//! [`BackendSpec`] is the one value the service configuration and the
//! CLI carry per fleet slot; [`BackendSpec::build`] turns it into a
//! live [`NttBackend`] and [`BackendSpec::cost_model`] into the router's
//! pricing entry, so every layer agrees on what a `"cpu-lanes"` slot
//! means.

use crate::backend::{CpuLanesBackend, NttBackend, PimBackend, PublishedBackend};
use crate::cost::{BusCostModel, CpuLaneCostModel, PublishedCostModel};
use crate::window::BackendKind;
use ntt_pim::core::config::{PimConfig, Topology};
use ntt_pim::core::PimError;
use ntt_pim::engine::batch::DeviceCostModel;
use ntt_pim::reference::cache::PlanCache;
use pim_baselines::{BpNttModel, MenttModel, NttAccelerator};
use std::sync::Arc;

/// Most slots one fleet description may name. Every slot becomes a live
/// backend with its own worker thread, so [`BackendSpec::parse_list`]
/// (and the CLI's `serve --devices`) reject larger fleets up front
/// instead of trying to allocate them.
pub const MAX_FLEET_SLOTS: usize = 256;

/// The type of [`BackendSpec::build`]'s first parameter, which `build`
/// ignores: every PIM backend schedules its batches one way, by LPT
/// packing with an asynchronous per-bank drain
/// ([`ntt_pim::engine::batch::BatchExecutor`]). The parameter stays
/// only until the repository benchmark stops passing it (ROADMAP item
/// 2(d)); then it goes, and this type with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// Longest-processing-time packing, banks draining asynchronously.
    #[default]
    Lpt,
}

/// Which published comparator a `published` slot models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishedKind {
    /// MeNTT: 6T-SRAM bit-serial PIM (max N 1024, fixed modulus).
    Mentt,
    /// BP-NTT: bit-parallel in-SRAM multiplier (max N 4096, fixed
    /// modulus).
    BpNtt,
}

impl PublishedKind {
    /// The slot's routing label.
    pub fn label(self) -> &'static str {
        match self {
            PublishedKind::Mentt => "mentt",
            PublishedKind::BpNtt => "bp-ntt",
        }
    }

    fn model(self) -> Arc<dyn NttAccelerator + Send + Sync> {
        match self {
            PublishedKind::Mentt => Arc::new(MenttModel),
            PublishedKind::BpNtt => Arc::new(BpNttModel),
        }
    }
}

/// One fleet slot: which backend to stand up there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackendSpec {
    /// A simulated PIM device with this configuration.
    Pim(PimConfig),
    /// The host CPU's lane-batched kernels.
    CpuLanes,
    /// A published comparator model.
    Published(PublishedKind),
}

impl BackendSpec {
    /// The default PIM slot: 2 atom buffers, `1×1×4` topology — the
    /// shape `serve` has always defaulted to per device.
    pub fn default_pim() -> Self {
        BackendSpec::Pim(PimConfig::hbm2e(2).with_topology(Topology::new(1, 1, 4)))
    }

    /// Parses one slot name: `pim`, `cpu-lanes`, `mentt`, or `bp-ntt`
    /// (a parsed `pim` gets the [`Self::default_pim`] configuration;
    /// callers with their own topology substitute it afterwards).
    ///
    /// # Errors
    ///
    /// A description of the unknown name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "pim" => Ok(Self::default_pim()),
            "cpu-lanes" => Ok(BackendSpec::CpuLanes),
            "mentt" => Ok(BackendSpec::Published(PublishedKind::Mentt)),
            "bp-ntt" => Ok(BackendSpec::Published(PublishedKind::BpNtt)),
            other => Err(format!(
                "unknown backend `{other}` (expected `pim`, `cpu-lanes`, `mentt`, or `bp-ntt`)"
            )),
        }
    }

    /// Parses a fleet description: comma-separated `name` or
    /// `name:count` entries, e.g. `pim:2,cpu-lanes:1,bp-ntt:1`, naming
    /// at most [`MAX_FLEET_SLOTS`] slots in total.
    ///
    /// # Errors
    ///
    /// A description of the first malformed entry, or of the count that
    /// takes the fleet past [`MAX_FLEET_SLOTS`].
    pub fn parse_list(s: &str) -> Result<Vec<Self>, String> {
        let mut specs: Vec<Self> = Vec::new();
        for entry in s.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                return Err("empty backend entry".into());
            }
            let (name, count) = match entry.split_once(':') {
                Some((name, count)) => (
                    name,
                    count
                        .parse::<usize>()
                        .map_err(|_| format!("bad count in `{entry}`"))?,
                ),
                None => (entry, 1),
            };
            if count == 0 {
                return Err(format!("zero count in `{entry}`"));
            }
            if count > MAX_FLEET_SLOTS - specs.len() {
                return Err(format!(
                    "`{entry}` takes the fleet past {MAX_FLEET_SLOTS} slots"
                ));
            }
            let spec = Self::parse(name)?;
            specs.extend(std::iter::repeat_n(spec, count));
        }
        if specs.is_empty() {
            return Err("empty backend list".into());
        }
        Ok(specs)
    }

    /// The slot's routing label.
    pub fn label(&self) -> &'static str {
        match self {
            BackendSpec::Pim(_) => "pim",
            BackendSpec::CpuLanes => "cpu-lanes",
            BackendSpec::Published(k) => k.label(),
        }
    }

    /// The slot's backend family.
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendSpec::Pim(_) => BackendKind::Pim,
            BackendSpec::CpuLanes => BackendKind::CpuLanes,
            BackendSpec::Published(_) => BackendKind::Published,
        }
    }

    /// Stands up the backend this slot describes. CPU slots share
    /// `cache` when given (one plan cache across a fleet's CPU slots and
    /// verifiers). The [`SchedulePolicy`] is ignored.
    ///
    /// # Errors
    ///
    /// Propagates PIM configuration validation errors.
    pub fn build(
        &self,
        _policy: SchedulePolicy,
        cache: Option<&Arc<PlanCache>>,
    ) -> Result<Box<dyn NttBackend>, PimError> {
        Ok(match self {
            BackendSpec::Pim(config) => Box::new(PimBackend::new(*config)?),
            BackendSpec::CpuLanes => Box::new(match cache {
                Some(cache) => CpuLanesBackend::with_cache(Arc::clone(cache)),
                None => CpuLanesBackend::new(),
            }),
            BackendSpec::Published(k) => Box::new(PublishedBackend::new(k.label(), k.model())),
        })
    }

    /// The router-side cost model pricing this slot.
    ///
    /// # Errors
    ///
    /// Propagates PIM configuration validation errors.
    pub fn cost_model(&self) -> Result<BusCostModel, PimError> {
        Ok(match self {
            BackendSpec::Pim(config) => BusCostModel::Pim(DeviceCostModel::new(*config)?),
            BackendSpec::CpuLanes => BusCostModel::CpuLanes(CpuLaneCostModel::new()),
            BackendSpec::Published(k) => {
                BusCostModel::Published(PublishedCostModel::new(k.label(), k.model()))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Fragments fleet descriptions are made of, including the counts
    /// that would otherwise overflow the slot allocation.
    const TOKENS: [&str; 12] = [
        "pim",
        "cpu-lanes",
        "mentt",
        "bp-ntt",
        ":",
        ",",
        "0",
        "1",
        "255",
        "256",
        "1000000000",
        "18446744073709551615",
    ];

    #[test]
    fn spec_list_spans_all_three_backend_kinds() {
        let specs = BackendSpec::parse_list("pim,cpu-lanes:2,mentt,bp-ntt").unwrap();
        assert_eq!(specs.len(), 5);
        let backends: Vec<Box<dyn NttBackend>> = specs
            .iter()
            .map(|s| s.build(SchedulePolicy::Lpt, None).unwrap())
            .collect();
        for (spec, backend) in specs.iter().zip(&backends) {
            assert_eq!(backend.label(), spec.label());
            assert_eq!(backend.kind(), spec.kind());
            assert_eq!(spec.cost_model().unwrap().window(), backend.window());
        }
        for kind in [
            BackendKind::Pim,
            BackendKind::CpuLanes,
            BackendKind::Published,
        ] {
            assert!(backends.iter().any(|b| b.kind() == kind), "{kind}");
        }
    }

    #[test]
    fn parse_list_bounds_the_fleet() {
        for huge in [
            "pim:18446744073709551615",
            "pim:1000000000",
            "cpu-lanes:257",
        ] {
            assert!(BackendSpec::parse_list(huge).is_err(), "{huge}");
        }
        let full = BackendSpec::parse_list(&format!("pim:{MAX_FLEET_SLOTS}")).unwrap();
        assert_eq!(full.len(), MAX_FLEET_SLOTS);
        let over = format!("pim:{},cpu-lanes:2", MAX_FLEET_SLOTS - 1);
        let err = BackendSpec::parse_list(&over).unwrap_err();
        assert!(err.contains("cpu-lanes:2"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary ASCII, spliced with the description's own tokens so
        /// well-formed prefixes occur, parses to a bounded non-empty
        /// fleet or an error — never a panic.
        #[test]
        fn parse_list_never_panics(
            pieces in prop::collection::vec((0usize..2 * TOKENS.len(), 0u8..128), 0..12),
        ) {
            let text: String = pieces
                .iter()
                .map(|&(pick, byte)| match TOKENS.get(pick) {
                    Some(token) => (*token).to_string(),
                    None => char::from(byte).to_string(),
                })
                .collect();
            match BackendSpec::parse_list(&text) {
                Ok(specs) => prop_assert!(
                    !specs.is_empty() && specs.len() <= MAX_FLEET_SLOTS,
                    "{text:?} parsed to {} slots",
                    specs.len()
                ),
                Err(reason) => prop_assert!(!reason.is_empty(), "{text:?}"),
            }
        }
    }
}
