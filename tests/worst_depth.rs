//! Regression test: the SLO harness's adversarial worst-depth stream
//! really does drive lookups to the **maximum** trie depth, observed
//! through [`descent_depth`](poptrie_suite::Poptrie::descent_depth).
//!
//! [`WorstDepth`] synthesizes its pool from the installed table's
//! longest-match chains (binary-radix depth). This test checks the
//! property that makes the pattern adversarial for *Poptrie*: with a
//! table whose deepest radix chains end in the longest prefixes, the
//! stream reaches the same maximum multibit descent depth as a sweep of
//! every installed route — the worst case the SLO harness is meant to
//! exercise — and that on this table the maximum equals the analytic
//! `ceil((32 - s) / 6)` bound.

use poptrie_suite::poptrie::{Fib, PoptrieConfig};
use poptrie_suite::traffic::WorstDepth;
use poptrie_suite::{NextHop, Prefix};

const DIRECT_BITS: u8 = 8;
const STREAM: usize = 2_048;

/// `addr/len` as a [`Prefix`], masking host bits.
fn pfx(addr: u32, len: u8) -> Prefix<u32> {
    let mask = if len == 0 { 0 } else { !0u32 << (32 - len) };
    Prefix::new(addr & mask, len)
}

/// Descent-depth histogram of looking up every key in `keys`.
fn depth_histogram(fib: &Fib<u32>, keys: impl IntoIterator<Item = u32>) -> Vec<u64> {
    let mut hist = vec![0u64; 8];
    for k in keys {
        hist[fib.poptrie().descent_depth(k) as usize] += 1;
    }
    hist
}

/// Highest depth bucket with any mass.
fn max_depth(depth: &[u64]) -> usize {
    depth.iter().rposition(|&n| n > 0).unwrap_or(0)
}

#[test]
fn worst_depth_stream_reaches_maximum_trie_depth() {
    // A table whose deepest radix chain is also its longest prefix: a
    // nested chain along 10.255.255.255 down to a /32, plus shallow
    // decoys that resolve in the direct table. With s = 8 the /32 chain
    // forces ceil((32 - 8) / 6) = 4 levels of multibit descent.
    let chain_addr = 0x0AFF_FFFFu32; // 10.255.255.255
    let mut routes: Vec<(Prefix<u32>, NextHop)> = Vec::new();
    for (i, len) in [8u8, 12, 16, 20, 24, 28, 32].into_iter().enumerate() {
        routes.push((pfx(chain_addr, len), (i + 1) as NextHop));
    }
    for (i, decoy) in [0xC000_0000u32, 0xC100_0000, 0x0800_0000]
        .into_iter()
        .enumerate()
    {
        routes.push((pfx(decoy, 8), (100 + i) as NextHop));
    }

    let cfg = PoptrieConfig::new()
        .direct_bits(DIRECT_BITS)
        .aggregate(false)
        .build()
        .unwrap();
    let mut fib: Fib<u32> = Fib::with_config(cfg);
    for &(p, nh) in &routes {
        fib.insert(p, nh).unwrap();
    }

    // Baseline: sweep every installed route's network address and record
    // the deepest descent any of them produces. This is the table's true
    // maximum — no traffic pattern can go deeper.
    let sweep = depth_histogram(&fib, routes.iter().map(|(p, _)| p.addr()));
    let full_max = max_depth(&sweep);
    assert_eq!(
        full_max,
        (32 - DIRECT_BITS as usize).div_ceil(6),
        "the /32 chain descends ceil((32 - s) / 6) levels"
    );

    // Adversarial stream: synthesized from the same route set, with a
    // pool cut far smaller than the table. Every stream address must be
    // drawn from the deepest chains, and the stream as a whole must hit
    // the table's maximum depth.
    let mut adversary = WorstDepth::synthesize(&routes, 4, 0xD0_0001);
    assert!(
        adversary.max_chain_depth() > 0,
        "chain table produced a depth-0 pool"
    );
    let mut stream = vec![0u32; STREAM];
    adversary.fill(&mut stream);

    let adv = depth_histogram(&fib, stream.iter().copied());
    let adv_max = max_depth(&adv);
    assert_eq!(
        adv_max, full_max,
        "adversarial stream fell short of the table's maximum depth \
         (reached {adv_max}, table max {full_max})"
    );

    // The pattern is concentrated, not a lucky outlier: with the pool
    // cut to the deepest chains, at least a uniform pool-share of the
    // stream (minus generous slack) lands at maximum depth.
    let pool = adversary.pool().len() as u64;
    assert!(
        adv[adv_max] >= (STREAM as u64) / (4 * pool),
        "only {} of {STREAM} lookups reached depth {adv_max} (pool {pool})",
        adv[adv_max]
    );

    // And nothing in the stream resolved in the direct table: depth 0
    // would mean the synthesizer picked an address outside every chain.
    assert_eq!(adv[0], 0, "adversarial stream hit the direct table");
}
