//! Seed derivation shared by every seeded layer of the stack: per-job
//! executor seeds in the batch pool and serving engine, per-ticket fleet
//! seeds, fault rolls, drift draws, mitigation sub-seeds and transport
//! chaos schedules all hash through [`splitmix64`], and derive the `k`-th
//! stream of a seed with [`derive()`].

/// SplitMix64 — the bijective 64-bit mixer behind every seed derivation.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seed of stream `k` under `seed`: `splitmix64(seed ^ splitmix64(k))`.
/// A pure function of `(seed, k)`, so job `k` gets the same seed no matter
/// which worker, engine or device runs it.
pub fn derive(seed: u64, k: u64) -> u64 {
    splitmix64(seed ^ splitmix64(k))
}
