//! ISSUE 7 acceptance: repeated served inference through a shared
//! [`PlanCache`] — the second deployment of the same model on the same
//! device is all cache hits, and cache hits cannot change results
//! (bitwise-identical logits cached vs uncached).

use qnat_core::compile_cache::PlanCache;
use qnat_core::executor::RetryPolicy;
use qnat_core::infer::{infer, InferenceBackend, InferenceOptions};
use qnat_core::model::{Qnn, QnnConfig};
use qnat_noise::presets;
use qnat_serve::{DeployServing, ServingOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn model() -> Qnn {
    let cfg = QnnConfig::standard(16, 4, 2, 2);
    Qnn::for_device(cfg, &presets::santiago(), 7).expect("santiago fits the standard model")
}

fn features(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|k| {
            (0..16)
                .map(|j| ((k * 16 + j) as f64 * 0.017).cos())
                .collect()
        })
        .collect()
}

fn serve_once(qnn: &Qnn, batch: &[Vec<f64>], cache: Option<Arc<PlanCache>>) -> Vec<Vec<f64>> {
    let serving = qnn
        .deploy_serving(
            &presets::santiago(),
            2,
            RetryPolicy::default(),
            None,
            &ServingOptions {
                workers: 2,
                seed: 23,
                plan_cache: cache,
                ..ServingOptions::default()
            },
        )
        .expect("serving deploy");
    let mut rng = StdRng::seed_from_u64(0);
    let out = infer(
        qnn,
        batch,
        &InferenceBackend::Deployed(&serving),
        &InferenceOptions::default(),
        &mut rng,
    )
    .expect("served inference");
    serving.drain();
    out.logits
}

/// Repeated inference — the QuantumNAT workload — through one shared
/// cache: the first deployment compiles every block (all misses), the
/// second skips the compiler entirely (all hits), and both serve the
/// exact logits an uncached deployment serves.
#[test]
fn repeated_serving_hits_cache_without_changing_results() {
    let qnn = model();
    let batch = features(12);
    let n_blocks = qnn.blocks().len() as u64;

    let uncached = serve_once(&qnn, &batch, None);

    let cache = Arc::new(PlanCache::new());
    let first = serve_once(&qnn, &batch, Some(Arc::clone(&cache)));
    assert_eq!(cache.hits(), 0, "fresh cache cannot hit");
    assert_eq!(cache.misses(), n_blocks, "one compile per block");

    let second = serve_once(&qnn, &batch, Some(Arc::clone(&cache)));
    assert_eq!(cache.hits(), n_blocks, "second deploy must be all hits");
    assert_eq!(cache.misses(), n_blocks, "second deploy must not compile");

    // Cache hits may not change results: bitwise equality across the
    // cold deploy, the warm deploy, and the cache-free baseline.
    assert_eq!(first, uncached);
    assert_eq!(second, uncached);
}

/// A drifted calibration must recompile — serving the stale plan against
/// fresh calibration is exactly what the fingerprint key forbids.
#[test]
fn drifted_device_recompiles_through_serving() {
    let qnn = model();
    let batch = features(4);
    let cache = Arc::new(PlanCache::new());
    let n_blocks = qnn.blocks().len() as u64;

    serve_once(&qnn, &batch, Some(Arc::clone(&cache)));
    assert_eq!(cache.misses(), n_blocks);

    let drifted = presets::santiago().drifted(1.5, 1.0);
    let serving = qnn
        .deploy_serving(
            &drifted,
            2,
            RetryPolicy::default(),
            None,
            &ServingOptions {
                plan_cache: Some(Arc::clone(&cache)),
                ..ServingOptions::default()
            },
        )
        .expect("drifted deploy");
    serving.drain();
    assert_eq!(cache.misses(), 2 * n_blocks, "drift must invalidate");
}
