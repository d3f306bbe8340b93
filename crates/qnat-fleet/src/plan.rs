//! Fleet-wide plan precompilation: one shared [`PlanCache`] compiles each
//! `(block, device-calibration, transpile level)` combination exactly once
//! across the whole fleet.
//!
//! The router itself moves *compiled* [`BatchJob`]s — it never transpiles.
//! What did transpile, before this module, was every caller turning a
//! [`Qnn`] into per-device jobs: `n_devices × n_blocks` routing passes per
//! deployment, repeated on every redeploy. [`plan_fleet`] runs those
//! through [`Qnn::route_plan_cached`] instead, so two fleet entries
//! sharing one preset calibration share one compiled plan, and a redeploy
//! against unchanged calibration compiles nothing at all. Drifted or
//! rescaled calibration changes the device fingerprint and recompiles —
//! the same invalidation rule the level-3 noise-adaptive layout needs.
//!
//! Cache hits return the identical plan, so routed jobs built from a
//! cached [`DevicePlan`] are bitwise equal to freshly compiled ones —
//! replay through [`replay_job`](crate::replay_job) is unaffected.

use crate::device::FleetDevice;
use qnat_core::batch::BatchJob;
use qnat_core::compile_cache::PlanCache;
use qnat_core::infer::BlockPlan;
use qnat_core::model::Qnn;
use qnat_noise::device::InvalidDeviceError;

/// One fleet device's compiled block plans.
#[derive(Debug, Clone)]
pub struct DevicePlan {
    /// The device (and breaker-key) name the plans were compiled for.
    pub device: String,
    /// One compiled plan per QNN block, block-index order.
    pub plans: Vec<BlockPlan>,
}

impl DevicePlan {
    /// Builds the submittable job for one input row on `block_idx`:
    /// encoder angles for `row` plus the block's trained parameters,
    /// bound into the cached symbolic circuit. Mirrors the serving
    /// layer's binding exactly, so a fleet job and a served ticket for
    /// the same row run the same circuit.
    pub fn job(&self, qnn: &Qnn, block_idx: usize, row: &[f64]) -> BatchJob {
        let block = &qnn.blocks()[block_idx];
        let mut params = block.encoder.angles(row);
        params.extend_from_slice(qnn.block_params(block_idx));
        BatchJob::exact(self.plans[block_idx].lowered.bind(&params))
    }

    /// Maps a job's measured expectations back to the block's logical
    /// observable order (the routed window may permute qubits).
    pub fn read_out(&self, block_idx: usize, expectations: &[f64]) -> Vec<f64> {
        self.plans[block_idx]
            .obs
            .iter()
            .map(|&w| expectations[w])
            .collect()
    }
}

/// Compiles `qnn` for every fleet device through one shared `cache`.
///
/// Returns one [`DevicePlan`] per device, in input order. Devices that
/// share a calibration fingerprint (e.g. two entries over one preset)
/// share cache entries; calling again with the same arguments is all
/// hits.
///
/// # Errors
///
/// [`InvalidDeviceError`] if any device is too small for the model —
/// nothing is cached for the failing `(block, device)` pair.
pub fn plan_fleet(
    qnn: &Qnn,
    devices: &[FleetDevice],
    opt_level: u8,
    cache: &PlanCache,
) -> Result<Vec<DevicePlan>, InvalidDeviceError> {
    devices
        .iter()
        .map(|d| {
            Ok(DevicePlan {
                device: d.name().to_owned(),
                plans: qnn.route_plan_cached(d.model(), opt_level, cache)?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnat_core::executor::RetryPolicy;
    use qnat_core::model::QnnConfig;
    use qnat_noise::fault::FaultSpec;
    use qnat_noise::presets;

    fn fleet() -> Vec<FleetDevice> {
        let retry = RetryPolicy::default();
        vec![
            FleetDevice::emulated(
                presets::santiago(),
                4,
                FaultSpec::transient(0.0, 1),
                retry.clone(),
            )
            .expect("santiago"),
            FleetDevice::emulated(
                presets::yorktown(),
                4,
                FaultSpec::transient(0.0, 1),
                retry.clone(),
            )
            .expect("yorktown"),
            FleetDevice::emulated(presets::santiago(), 4, FaultSpec::transient(0.0, 1), retry)
                .expect("santiago twin")
                .named("santiago-b"),
        ]
    }

    #[test]
    fn shared_calibration_shares_cache_entries() {
        let qnn = Qnn::new(QnnConfig::standard(16, 4, 2, 2), 5);
        let devices = fleet();
        let cache = PlanCache::new();
        let plans = plan_fleet(&qnn, &devices, 2, &cache).expect("plan fleet");
        assert_eq!(plans.len(), 3);
        // 3 devices but only 2 distinct calibrations: the santiago twin
        // hits the entries its sibling populated.
        let stats = cache.stats();
        assert_eq!(stats.entries, 2 * qnn.blocks().len());
        assert_eq!(stats.hits as usize, qnn.blocks().len());
        // Redeploying the whole fleet compiles nothing.
        plan_fleet(&qnn, &devices, 2, &cache).expect("replan fleet");
        assert_eq!(cache.misses(), stats.misses);
    }

    #[test]
    fn cached_fleet_jobs_match_uncached_routing() {
        let qnn = Qnn::new(QnnConfig::standard(16, 4, 1, 2), 9);
        let devices = fleet();
        let cache = PlanCache::new();
        let cached = plan_fleet(&qnn, &devices, 2, &cache).expect("cached");
        let row = vec![0.3; 16];
        for (dp, dev) in cached.iter().zip(&devices) {
            let plain = qnn.route_plan(dev.model(), 2).expect("plain route");
            for b in 0..qnn.blocks().len() {
                let block = &qnn.blocks()[b];
                let mut params = block.encoder.angles(&row);
                params.extend_from_slice(qnn.block_params(b));
                assert_eq!(
                    dp.job(&qnn, b, &row).circuit,
                    plain[b].lowered.bind(&params)
                );
                assert_eq!(dp.plans[b].obs, plain[b].obs);
            }
        }
    }
}
