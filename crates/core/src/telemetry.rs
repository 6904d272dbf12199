//! Runtime telemetry for the Poptrie update path.
//!
//! The paper explains update cost per update: structural work and
//! latency of each incremental patch (Table 6, §4.9). This module keeps
//! those signals flowing from a *live* FIB: process-wide, lock-free
//! counters that the update and RCU paths increment and that
//! [`snapshot`] materializes into a [`TelemetrySnapshot`]
//! (human-readable struct) or, via [`TelemetrySnapshot::registry`], a
//! [`TelemetryRegistry`] rendering Prometheus text or JSON.
//!
//! # Always on, once per update
//!
//! Every build carries these counters. They cost one record per applied
//! update, rebuild or RCU publish — each of which already rewrites trie
//! structure or swaps a pointer — and nothing on the lookup path. Lookup
//! depth is not counted here at all: [`PoptrieImpl::descent_depth`] is a
//! pure query, and the forwarding engine applies it to the flight
//! recorder's 1-in-N sampled batches instead of taxing every lookup.
//!
//! # Counter semantics
//!
//! The counters are **process-wide**, aggregated across every
//! `PoptrieImpl` instance in the process (matching the usual Prometheus
//! model of per-process totals). All increments are relaxed atomics on
//! per-thread shards — see `poptrie-telemetry` for the memory-ordering
//! contract. [`reset`] zeroes everything; serialize it against the
//! workload you want to measure.

use poptrie_bitops::Bits;
use poptrie_telemetry::{Counter, Gauge, Log2Histogram, LOG2_BUCKETS};

pub use poptrie_buddy::Fragmentation;
pub use poptrie_telemetry::{Metric, MetricValue, TelemetryRegistry};

use crate::node::NodeRepr;
use crate::trie::PoptrieImpl;
use crate::update::UpdateStats;

/// Buckets in a descent-depth histogram (see
/// [`PoptrieImpl::descent_depth`]). Depth 0 is a direct-table hit; the
/// deepest possible descent is `ceil((K::BITS - s) / 6)` — 22 for
/// `u128` with `s = 0` — so 24 buckets never clamp in practice.
pub const DEPTH_BUCKETS: usize = 24;

// ---- the process-wide metrics ------------------------------------------

static ANNOUNCES: Counter = Counter::new();
static WITHDRAWS: Counter = Counter::new();
static REBUILDS: Counter = Counter::new();
static UPDATE_LATENCY: Log2Histogram = Log2Histogram::new();
static DIRECT_REPLACEMENTS: Counter = Counter::new();
static NODES_ALLOCATED: Counter = Counter::new();
static NODES_FREED: Counter = Counter::new();
static LEAVES_ALLOCATED: Counter = Counter::new();
static LEAVES_FREED: Counter = Counter::new();

static RCU_PUBLISHES: Counter = Counter::new();
static RCU_OUTSTANDING_PEAK: Gauge = Gauge::new();

// ---- update-path hooks (called from update.rs and sync.rs) ------------

/// One applied route update (announce or withdraw that changed the RIB):
/// its wall latency in TSC cycles and the structural work it performed
/// (an [`UpdateStats`] delta).
pub(crate) fn record_update(announce: bool, cycles: u64, work: &UpdateStats) {
    if announce {
        ANNOUNCES.inc();
    } else {
        WITHDRAWS.inc();
    }
    UPDATE_LATENCY.record(cycles);
    DIRECT_REPLACEMENTS.add(work.direct_replacements);
    NODES_ALLOCATED.add(work.nodes_allocated);
    NODES_FREED.add(work.nodes_freed);
    LEAVES_ALLOCATED.add(work.leaves_allocated);
    LEAVES_FREED.add(work.leaves_freed);
}

/// One full recompilation ([`Fib::rebuild`](crate::Fib::rebuild)).
pub(crate) fn record_rebuild(cycles: u64) {
    REBUILDS.inc();
    UPDATE_LATENCY.record(cycles);
}

/// One RCU snapshot publish, with the number of old snapshots still
/// outstanding at the instant of the swap.
pub(crate) fn record_rcu_publish(outstanding: u64) {
    RCU_PUBLISHES.inc();
    RCU_OUTSTANDING_PEAK.record_max(outstanding);
}

// ---- exposition --------------------------------------------------------

/// Point-in-time structural gauges of one compiled FIB, sampled by
/// [`structure_gauges`]. These are the live analogues of Table 2/Table 5
/// columns plus the §3.5 buddy-allocator health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructureGauges {
    /// Live internal nodes (Table 2's "# of inodes").
    pub inodes: usize,
    /// Live leaves (Table 2's "# of leaves").
    pub leaves: usize,
    /// Direct-pointing entries (`2^s`).
    pub direct_slots: usize,
    /// Memory footprint in bytes (Tables 2, 3, 5 accounting).
    pub memory_bytes: usize,
    /// Fragmentation of the internal-node index space.
    pub node_buddy: Fragmentation,
    /// Fragmentation of the leaf index space.
    pub leaf_buddy: Fragmentation,
}

/// Sample the structural gauges of `fib`. Cheap (no traversal): counts
/// and buddy free-list summaries only.
pub fn structure_gauges<K: Bits, N: NodeRepr>(fib: &PoptrieImpl<K, N>) -> StructureGauges {
    let st = fib.stats();
    StructureGauges {
        inodes: st.inodes,
        leaves: st.leaves,
        direct_slots: st.direct_slots,
        memory_bytes: st.memory_bytes,
        node_buddy: fib.node_buddy.fragmentation(),
        leaf_buddy: fib.leaf_buddy.fragmentation(),
    }
}

/// A materialized copy of every process-wide telemetry metric, plus
/// optionally the structural gauges of one FIB
/// ([`TelemetrySnapshot::attach_structure`]).
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Applied announces (inserts that changed the RIB).
    pub announces: u64,
    /// Applied withdraws.
    pub withdraws: u64,
    /// Full recompilations.
    pub rebuilds: u64,
    /// Per-update latency histogram, log2 buckets of TSC cycles: bucket 0
    /// holds 0, bucket `i` holds `[2^(i-1), 2^i)`.
    pub update_latency: [u64; LOG2_BUCKETS],
    /// Sum of all recorded update latencies, in cycles.
    pub update_latency_sum: u64,
    /// Direct-pointing entries rewritten (§4.9's top-level replacements).
    pub direct_replacements: u64,
    /// Internal nodes allocated by updates.
    pub nodes_allocated: u64,
    /// Internal nodes freed by updates.
    pub nodes_freed: u64,
    /// Leaves allocated by updates.
    pub leaves_allocated: u64,
    /// Leaves freed by updates.
    pub leaves_freed: u64,
    /// RCU snapshot publishes ([`RcuCell::replace`](crate::sync::RcuCell::replace)
    /// through [`SharedFib`](crate::sync::SharedFib)).
    pub rcu_publishes: u64,
    /// Peak number of old snapshots still outstanding at publish time.
    pub rcu_outstanding_peak: u64,
    /// Structural gauges of one FIB, when attached.
    pub structure: Option<StructureGauges>,
}

/// Materialize the current process-wide counters.
pub fn snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot {
        announces: ANNOUNCES.get(),
        withdraws: WITHDRAWS.get(),
        rebuilds: REBUILDS.get(),
        update_latency: UPDATE_LATENCY.counts(),
        update_latency_sum: UPDATE_LATENCY.sum(),
        direct_replacements: DIRECT_REPLACEMENTS.get(),
        nodes_allocated: NODES_ALLOCATED.get(),
        nodes_freed: NODES_FREED.get(),
        leaves_allocated: LEAVES_ALLOCATED.get(),
        leaves_freed: LEAVES_FREED.get(),
        rcu_publishes: RCU_PUBLISHES.get(),
        rcu_outstanding_peak: RCU_OUTSTANDING_PEAK.get(),
        structure: None,
    }
}

/// Zero every process-wide counter, histogram and gauge. Serialize this
/// against the workload being measured (tests that assert exact totals
/// must own the process).
pub fn reset() {
    ANNOUNCES.reset();
    WITHDRAWS.reset();
    REBUILDS.reset();
    UPDATE_LATENCY.reset();
    DIRECT_REPLACEMENTS.reset();
    NODES_ALLOCATED.reset();
    NODES_FREED.reset();
    LEAVES_ALLOCATED.reset();
    LEAVES_FREED.reset();
    RCU_PUBLISHES.reset();
    RCU_OUTSTANDING_PEAK.reset();
}

impl TelemetrySnapshot {
    /// Total applied route updates.
    pub fn updates_total(&self) -> u64 {
        self.announces + self.withdraws
    }

    /// Attach the structural gauges of `fib` (builder style).
    pub fn attach_structure<K: Bits, N: NodeRepr>(mut self, fib: &PoptrieImpl<K, N>) -> Self {
        self.structure = Some(structure_gauges(fib));
        self
    }

    /// Build the full metric registry this snapshot describes, ready to
    /// render as Prometheus text ([`TelemetryRegistry::render_prometheus`])
    /// or JSON ([`TelemetryRegistry::render_json`]).
    pub fn registry(&self) -> TelemetryRegistry {
        let mut r = TelemetryRegistry::new();
        r.counter(
            "poptrie_updates_total",
            "Applied route updates, by operation.",
            &[("op", "announce")],
            self.announces,
        );
        r.counter(
            "poptrie_updates_total",
            "Applied route updates, by operation.",
            &[("op", "withdraw")],
            self.withdraws,
        );
        r.counter(
            "poptrie_rebuilds_total",
            "Full FIB recompilations from the RIB.",
            &[],
            self.rebuilds,
        );
        let lat_buckets: Vec<(f64, u64)> = self
            .update_latency
            .iter()
            .enumerate()
            .map(|(i, &n)| (Log2Histogram::upper_bound(i) as f64, n))
            .collect();
        r.histogram(
            "poptrie_update_latency_cycles",
            "Per-update patch latency in TSC cycles, log2 buckets (cf. Table 6, sec. 4.9).",
            &[],
            &lat_buckets,
            self.update_latency_sum as f64,
        );
        r.counter(
            "poptrie_update_direct_replacements_total",
            "Direct-pointing (top-level array) entries rewritten by updates (sec. 4.9).",
            &[],
            self.direct_replacements,
        );
        r.counter(
            "poptrie_update_nodes_total",
            "Internal nodes allocated/freed by incremental updates (sec. 3.5).",
            &[("event", "allocated")],
            self.nodes_allocated,
        );
        r.counter(
            "poptrie_update_nodes_total",
            "Internal nodes allocated/freed by incremental updates (sec. 3.5).",
            &[("event", "freed")],
            self.nodes_freed,
        );
        r.counter(
            "poptrie_update_leaves_total",
            "Leaves allocated/freed by incremental updates (sec. 3.5).",
            &[("event", "allocated")],
            self.leaves_allocated,
        );
        r.counter(
            "poptrie_update_leaves_total",
            "Leaves allocated/freed by incremental updates (sec. 3.5).",
            &[("event", "freed")],
            self.leaves_freed,
        );
        r.counter(
            "poptrie_rcu_publishes_total",
            "FIB snapshots published through the RCU cell.",
            &[],
            self.rcu_publishes,
        );
        r.gauge(
            "poptrie_rcu_outstanding_snapshots_peak",
            "Peak old snapshots still held by readers at publish time.",
            &[],
            self.rcu_outstanding_peak as f64,
        );
        if let Some(st) = &self.structure {
            r.gauge(
                "poptrie_fib_inodes",
                "Live internal nodes (Table 2).",
                &[],
                st.inodes as f64,
            );
            r.gauge(
                "poptrie_fib_leaves",
                "Live leaves (Table 2).",
                &[],
                st.leaves as f64,
            );
            r.gauge(
                "poptrie_fib_direct_slots",
                "Direct-pointing entries (2^s).",
                &[],
                st.direct_slots as f64,
            );
            r.gauge(
                "poptrie_fib_memory_bytes",
                "FIB memory footprint in bytes (Tables 2, 3, 5 accounting).",
                &[],
                st.memory_bytes as f64,
            );
            for (label, f) in [("node", &st.node_buddy), ("leaf", &st.leaf_buddy)] {
                r.gauge(
                    "poptrie_buddy_capacity_slots",
                    "Buddy-allocator managed slots, by array.",
                    &[("array", label)],
                    f.capacity as f64,
                );
                r.gauge(
                    "poptrie_buddy_allocated_slots",
                    "Buddy-allocator allocated slots (with rounding), by array.",
                    &[("array", label)],
                    f.allocated_slots as f64,
                );
                r.gauge(
                    "poptrie_buddy_live_blocks",
                    "Outstanding buddy allocations, by array.",
                    &[("array", label)],
                    f.live_blocks as f64,
                );
                r.gauge(
                    "poptrie_buddy_slack_slots",
                    "Slots lost to rounding and fragmentation, by array.",
                    &[("array", label)],
                    f.slack as f64,
                );
                r.gauge(
                    "poptrie_buddy_free_spans",
                    "Maximal contiguous free spans, by array.",
                    &[("array", label)],
                    f.free_spans as f64,
                );
                r.gauge(
                    "poptrie_buddy_largest_free_span_slots",
                    "Largest contiguous free span in slots, by array.",
                    &[("array", label)],
                    f.largest_free_span as f64,
                );
            }
        }
        r
    }

    /// Render as Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.registry().render_prometheus()
    }

    /// Render as a flat JSON object.
    pub fn render_json(&self) -> String {
        self.registry().render_json()
    }
}
