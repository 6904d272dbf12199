//! Differential accounting test for the update-path telemetry.
//!
//! Runs a fully scripted workload — known numbers of announces, withdraws,
//! rebuilds and RCU publishes, on both `u32` and `u128` keys — and asserts
//! the process-wide counters reconcile with the script *exactly*: no
//! sampling, no slop, every event accounted for once. Lookups run too,
//! and must leave every counter untouched.
//!
//! All exact-equality assertions live in ONE `#[test]` function. The
//! counters are process-global and the harness runs tests in parallel
//! threads, so a second test in this binary updating a FIB would race the
//! totals. Keep it that way.

use poptrie_suite::poptrie::sync::SharedFib;
use poptrie_suite::poptrie::telemetry;
use poptrie_suite::poptrie::{PoptrieConfig, BATCH_LANES};
use poptrie_suite::{Fib, NextHop, Prefix};

fn cfg16() -> PoptrieConfig {
    PoptrieConfig::new()
        .direct_bits(16)
        .aggregate(false)
        .build()
        .unwrap()
}

/// The scripted ground truth, accumulated while driving the workload.
#[derive(Default)]
struct Script {
    announces: u64,
    withdraws: u64,
    rebuilds: u64,
    rcu_publishes: u64,
}

impl Script {
    fn insert<K: poptrie_suite::rib::Bits>(&mut self, fib: &mut Fib<K>, prefix: &str, nh: NextHop)
    where
        Prefix<K>: std::str::FromStr,
        <Prefix<K> as std::str::FromStr>::Err: std::fmt::Debug,
    {
        let p: Prefix<K> = prefix.parse().expect("prefix");
        // Only RIB-changing announces are counted (re-announcing the
        // current next hop is a documented no-op).
        if fib.rib().get(p) != Some(&nh) {
            self.announces += 1;
        }
        fib.insert(p, nh).unwrap();
    }

    fn remove<K: poptrie_suite::rib::Bits>(&mut self, fib: &mut Fib<K>, prefix: &str)
    where
        Prefix<K>: std::str::FromStr,
        <Prefix<K> as std::str::FromStr>::Err: std::fmt::Debug,
    {
        let p: Prefix<K> = prefix.parse().expect("prefix");
        if fib.remove(p).unwrap().changed() {
            self.withdraws += 1;
        }
    }
}

/// Scalar and batched lookups of `keys`: the counters must not move.
fn lookups<K: poptrie_suite::rib::Bits>(fib: &Fib<K>, keys: &[K]) {
    let before = telemetry::snapshot().registry().render_json();
    for &k in keys {
        let _ = fib.lookup(k);
    }
    let mut out = vec![0; keys.len()];
    fib.poptrie().lookup_batch(keys, &mut out);
    assert_eq!(
        telemetry::snapshot().registry().render_json(),
        before,
        "lookups must not touch the telemetry counters"
    );
}

#[test]
fn counters_reconcile_exactly_with_scripted_workload() {
    telemetry::reset();
    let mut script = Script::default();

    // ---- u32 phase: a small table spanning direct-only, shallow and
    // deep prefixes (direct bits 16 -> /24 resolves at depth 2).
    let mut v4: Fib<u32> = Fib::with_config(cfg16());
    script.insert(&mut v4, "0.0.0.0/0", 1);
    script.insert(&mut v4, "10.0.0.0/8", 2);
    script.insert(&mut v4, "10.128.0.0/9", 3);
    script.insert(&mut v4, "192.0.2.0/24", 4);
    script.insert(&mut v4, "192.0.2.128/25", 5);
    script.insert(&mut v4, "198.51.100.0/28", 6);
    script.insert(&mut v4, "198.51.100.0/28", 6); // no-op re-announce
    script.insert(&mut v4, "198.51.100.0/28", 7); // next-hop change: counts
    script.remove(&mut v4, "10.128.0.0/9");
    script.remove(&mut v4, "10.128.0.0/9"); // already gone: not counted
    script.remove(&mut v4, "203.0.113.0/24"); // never existed: not counted

    // Keys chosen to exercise every script route plus the default; count
    // deliberately not a multiple of BATCH_LANES so one chunk is partial.
    let mut v4_keys = Vec::new();
    for i in 0..(3 * BATCH_LANES as u32 + 3) {
        v4_keys.push(match i % 5 {
            0 => 0x0A00_0000 + i,        // 10.0.0.0/8
            1 => 0xC000_0200 + (i % 96), // 192.0.2.0/24 (+/25 half)
            2 => 0xC633_6400 + (i % 16), // 198.51.100.0/28
            3 => 0xCB00_7100 + i,        // 203.0.113.x -> default route
            _ => i,                      // 0.x.y.z -> default route
        });
    }
    lookups(&v4, &v4_keys);
    v4.rebuild();
    script.rebuilds += 1;

    // ---- u128 phase: same shape on IPv6-width keys.
    let mut v6: Fib<u128> = Fib::with_config(cfg16());
    script.insert(&mut v6, "::/0", 1);
    script.insert(&mut v6, "2001:db8::/32", 2);
    script.insert(&mut v6, "2001:db8:aa::/48", 3);
    script.insert(&mut v6, "2001:db8:aa:bb::/64", 4);
    script.insert(&mut v6, "2001:db8:aa:bb::/64", 4); // no-op re-announce
    script.remove(&mut v6, "2001:db8:aa::/48");
    script.remove(&mut v6, "fe80::/10"); // never existed: not counted
    let base: u128 = "2001:db8::".parse::<std::net::Ipv6Addr>().unwrap().into();
    let mut v6_keys = Vec::new();
    for i in 0..(2 * BATCH_LANES as u128 + 1) {
        v6_keys.push(match i % 3 {
            0 => base + i,                    // 2001:db8::/32
            1 => base + (0xbbu128 << 64) + i, // 2001:db8:0:bb::... still /32
            _ => i,                           // ::x -> default route
        });
    }
    lookups(&v6, &v6_keys);
    v6.rebuild();
    script.rebuilds += 1;

    // ---- RCU phase: publishes = every insert call + applied withdraws.
    let shared: SharedFib<u32> = SharedFib::with_config(cfg16());
    let parked = shared.snapshot(); // hold one snapshot across publishes
    shared.insert("0.0.0.0/0".parse().unwrap(), 1).unwrap();
    script.announces += 1;
    script.rcu_publishes += 1;
    shared.insert("0.0.0.0/0".parse().unwrap(), 1).unwrap(); // no-op announce...
    script.rcu_publishes += 1; // ...but SharedFib still publishes
    shared.insert("172.16.0.0/12".parse().unwrap(), 2).unwrap();
    script.announces += 1;
    script.rcu_publishes += 1;
    assert!(shared
        .remove("172.16.0.0/12".parse().unwrap())
        .unwrap()
        .changed());
    script.withdraws += 1;
    script.rcu_publishes += 1;
    assert!(!shared
        .remove("172.16.0.0/12".parse().unwrap())
        .unwrap()
        .changed());
    // gone already: no publish
    drop(parked);

    // ---- reconciliation: every total matches the script exactly.
    let t = telemetry::snapshot();
    assert_eq!(t.announces, script.announces, "applied announces");
    assert_eq!(t.withdraws, script.withdraws, "applied withdraws");
    assert_eq!(t.rebuilds, script.rebuilds, "rebuilds");
    assert_eq!(
        t.update_latency.iter().sum::<u64>(),
        script.announces + script.withdraws + script.rebuilds,
        "latency histogram mass == applied updates + rebuilds"
    );
    assert_eq!(t.rcu_publishes, script.rcu_publishes, "RCU publishes");
    assert_eq!(t.rcu_outstanding_peak, 1, "one parked snapshot at peak");
    // Structural work balances: the fibs are still alive, so allocations
    // can exceed frees, never the reverse.
    assert!(t.nodes_allocated >= t.nodes_freed, "node balance");
    assert!(t.leaves_allocated >= t.leaves_freed, "leaf balance");

    // The exposition layers agree with the snapshot they render.
    let prom = t.render_prometheus();
    assert!(prom.contains(&format!(
        "poptrie_updates_total{{op=\"announce\"}} {}",
        script.announces
    )));
    assert!(
        !prom.contains("poptrie_lookup"),
        "no lookup families remain"
    );
    assert!(prom.contains(&format!(
        "poptrie_rcu_publishes_total {}",
        script.rcu_publishes
    )));
    let json = t.render_json();
    assert!(json.contains(&format!(
        "\"poptrie_updates_total{{op=withdraw}}\": {}",
        script.withdraws
    )));

    // reset() really zeroes everything a fresh process would show.
    telemetry::reset();
    let z = telemetry::snapshot();
    assert_eq!(z.updates_total(), 0);
    assert_eq!(z.rebuilds, 0);
    assert_eq!(z.rcu_publishes, 0);
    assert_eq!(z.update_latency.iter().sum::<u64>(), 0);
}
