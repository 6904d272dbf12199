//! Single-layer probes of the traced run, on one thread after the engine
//! has stopped: the trie on the workload's own keys, and the update path
//! replaying the stream the run sent, on standalone copies.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use poptrie::sync::{FibSnapshot, RouteUpdate, SharedFib};
use poptrie::{BatchBackend, Fib};
use poptrie_rib::{NextHop, NO_ROUTE};

use crate::metrics::median;
use crate::spans::{Kind, Spans};

/// Repetitions of each timed probe; the probe reports their median.
pub const REPS: usize = 5;

/// Nanoseconds per key of scalar `lookup` over every pool batch, each
/// against its own snapshot.
pub fn lookup_ns(
    snaps: &[Arc<FibSnapshot<u32>>],
    batches: &[Arc<[u32]>],
    spans: &mut Spans,
) -> f64 {
    let keys: usize = batches.iter().map(|b| b.len()).sum();
    let per_rep: Vec<f64> = (0..REPS)
        .map(|rep| {
            let t0 = Instant::now();
            let mut acc = 0u64;
            for (s, b) in snaps.iter().zip(batches) {
                for &k in b.iter() {
                    acc = acc.wrapping_add(u64::from(s.lookup_raw(black_box(k))));
                }
            }
            black_box(acc);
            let t1 = Instant::now();
            spans.record("trie.lookup", Kind::Probe, rep as u64, 0, t0, t1);
            (t1 - t0).as_nanos() as f64 / keys as f64
        })
        .collect();
    median(&per_rep)
}

/// Nanoseconds per key of `lookup_batch` over every pool batch.
pub fn batch_ns(
    snaps: &[Arc<FibSnapshot<u32>>],
    batches: &[Arc<[u32]>],
    tier: BatchBackend,
    spans: &mut Spans,
) -> f64 {
    let name = match tier {
        BatchBackend::Scalar => "trie.lookup_batch_scalar",
        BatchBackend::Avx2 => "trie.lookup_batch_avx2",
        BatchBackend::Avx512 => "trie.lookup_batch_avx512",
    };
    let keys: usize = batches.iter().map(|b| b.len()).sum();
    let mut out: Vec<NextHop> = vec![NO_ROUTE; batches.iter().map(|b| b.len()).max().unwrap_or(0)];
    let per_rep: Vec<f64> = (0..REPS)
        .map(|rep| {
            let t0 = Instant::now();
            for (s, b) in snaps.iter().zip(batches) {
                s.lookup_batch(black_box(b), &mut out[..b.len()]);
                black_box(&out);
            }
            let t1 = Instant::now();
            spans.record(name, Kind::Probe, rep as u64, 0, t0, t1);
            (t1 - t0).as_nanos() as f64 / keys as f64
        })
        .collect();
    median(&per_rep)
}

/// Update-path costs of replaying `groups` (one group per publish the
/// run made) on standalone copies of the table the run started from.
#[derive(Debug, Default, Clone, Copy)]
pub struct UpdateCosts {
    /// Mean `Fib` insert/remove time per update.
    pub apply_us: f64,
    /// Median `SharedFib::update_batch` time per group, publish included.
    pub update_batch_us: f64,
    /// Median of (`update_batch` − the same group's summed apply time).
    pub publish_us: f64,
}

pub fn update_costs(
    shared: &SharedFib<u32>,
    mut fib: Fib<u32>,
    groups: &[Vec<RouteUpdate<u32>>],
    spans: &mut Spans,
) -> UpdateCosts {
    let groups: Vec<&Vec<RouteUpdate<u32>>> = groups.iter().filter(|g| !g.is_empty()).collect();
    if groups.is_empty() {
        return UpdateCosts::default();
    }
    let mut apply_sums = Vec::with_capacity(groups.len());
    let mut updates = 0usize;
    for (i, g) in groups.iter().enumerate() {
        let t0 = Instant::now();
        for &u in g.iter() {
            let r = match u {
                RouteUpdate::Announce(p, nh) => fib.insert(p, nh),
                RouteUpdate::Withdraw(p) => fib.remove(p),
            };
            black_box(r.ok());
        }
        let t1 = Instant::now();
        spans.record("update.apply", Kind::Probe, i as u64, 0, t0, t1);
        apply_sums.push((t1 - t0).as_secs_f64() * 1e6);
        updates += g.len();
    }
    let mut batch = Vec::with_capacity(groups.len());
    let mut publish = Vec::with_capacity(groups.len());
    for (i, g) in groups.iter().enumerate() {
        let t0 = Instant::now();
        black_box(shared.update_batch(g.iter().copied()));
        let t1 = Instant::now();
        spans.record("sync.update_batch", Kind::Probe, i as u64, 0, t0, t1);
        let us = (t1 - t0).as_secs_f64() * 1e6;
        batch.push(us);
        publish.push(us - apply_sums[i]);
    }
    UpdateCosts {
        apply_us: apply_sums.iter().sum::<f64>() / updates as f64,
        update_batch_us: median(&batch),
        publish_us: median(&publish),
    }
}

/// Nanoseconds per `VrfTable::snapshot` call, cycling over `ids`.
pub fn vrf_snapshot_ns(vrfs: &poptrie_vrf::VrfTable<u32>, ids: &[u32], spans: &mut Spans) -> f64 {
    const CALLS: usize = 100_000;
    let per_rep: Vec<f64> = (0..REPS)
        .map(|rep| {
            let t0 = Instant::now();
            for i in 0..CALLS {
                black_box(vrfs.snapshot(poptrie::VrfId::new(ids[i % ids.len()])));
            }
            let t1 = Instant::now();
            spans.record("vrf.snapshot", Kind::Probe, rep as u64, 0, t0, t1);
            (t1 - t0).as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&per_rep)
}
