//! # qnat-bench — experiment harness for the QuantumNAT reproduction
//!
//! One binary per paper table/figure (see DESIGN.md §4) plus criterion
//! performance benches. The shared four-arm ablation protocol lives in
//! [`harness`]; the throughput benches' guarded latency percentiles live
//! in [`stats`]; the benches' shared §4.2 circuit is [`block_circuit`].

#![warn(missing_docs)]

pub mod harness;
pub mod stats;

use qnat_core::model::{Qnn, QnnConfig};
use qnat_noise::presets;
use qnat_sim::circuit::Circuit;

/// The §4.2 QNN block as the simulator actually sees it: the standard
/// 16-feature / 4-qubit model's first block, routed for Santiago at
/// transpile level 2, with one encoder row and the trained parameters
/// bound into the symbolic circuit (146 basis gates).
pub fn block_circuit() -> Circuit {
    let qnn = Qnn::new(QnnConfig::standard(16, 4, 1, 2), 7);
    let plans = qnn
        .route_plan(&presets::santiago(), 2)
        .expect("santiago fits the standard model");
    let block = &qnn.blocks()[0];
    let row: Vec<f64> = (0..16).map(|j| (j as f64 * 0.013).sin()).collect();
    let mut params = block.encoder.angles(&row);
    params.extend_from_slice(qnn.block_params(0));
    plans[0].lowered.bind(&params)
}
