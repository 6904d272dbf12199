//! Seeded inputs: lookup keys, the §4.9 update stream and the VRF
//! tenant family. Everything here is a pure function of the seed (and of
//! the fixed, name-seeded table), so two runs with one seed see the same
//! inputs and the program under test sees only the generated values.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use poptrie::sync::RouteUpdate;
use poptrie_rib::{NextHop, Prefix, RadixTree};
use poptrie_rng::prelude::*;
use poptrie_tablegen::Dataset;
use poptrie_traffic::{RealTrace, TraceConfig, Xorshift128, Zipf};

/// Keys per lookup batch (one ingress submission).
pub const BATCH: usize = 4096;
/// Distinct key batches per run; the load generator cycles through them.
/// 256 × 4096 keys is 4 MiB, larger than L2, so the pool does not turn
/// into a cache-resident replay.
pub const POOL: usize = 256;
/// Route events per BGP burst on `churn`.
pub const BURST: usize = 64;
/// Tenants of the `vrf` workload.
pub const TENANTS: usize = 1024;
/// Base groups shared by every tenant (64 /26es each, as `repro vrf`).
const GROUPS: usize = 32;
/// Tenant-private /26es on top of the base feed.
const DELTA_ROUTES: usize = 24;
/// Zipf skew of tenant popularity on `vrf`.
pub const TENANT_ZIPF: f64 = 1.0;
/// The §4.9 replay's announce share: 18,141 of 23,446 updates.
const ANNOUNCE_SHARE: f64 = 18_141.0 / 23_446.0;

/// An independent generator per input stream, so adding a draw to one
/// stream never shifts another.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn xorshift(seed: u64, stream: u64) -> Xorshift128 {
    Xorshift128::new(rng(seed, stream).next_u32() | 1)
}

fn chunk(keys: Vec<u32>) -> Vec<Vec<u32>> {
    keys.chunks(BATCH).map(<[u32]>::to_vec).collect()
}

/// `steady`: uniformly random IPv4 destinations.
pub fn uniform_batches(seed: u64) -> Vec<Vec<u32>> {
    let mut r = rng(seed, 1);
    chunk((0..POOL * BATCH).map(|_| r.next_u32()).collect())
}

/// `churn`: `RealTrace` destinations (depth-biased, log-uniform
/// popularity) synthesized against the table.
pub fn trace_batches(table: &Dataset, seed: u64) -> Vec<Vec<u32>> {
    let trace = RealTrace::synthesize(
        table,
        TraceConfig {
            seed: rng(seed, 2).next_u32(),
            ..TraceConfig::default()
        },
    );
    chunk(trace.packet_array(POOL * BATCH))
}

/// The wire next hop that carries FIB next hop `nh` (10.0.x.y).
pub fn nh_addr(nh: NextHop) -> Ipv4Addr {
    Ipv4Addr::from(0x0A00_0000 | u32::from(nh))
}

/// The FIB next hop a wire next hop stands for, when it is one of ours.
pub fn nh_of(addr: Ipv4Addr) -> Option<NextHop> {
    let a = u32::from(addr);
    (a >> 16 == 0x0A00 && a & 0xFFFF != 0).then_some((a & 0xFFFF) as NextHop)
}

/// One BGP UPDATE: either withdrawals only or announcements sharing one
/// next hop, so its routes apply in an unambiguous order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    pub withdrawn: Vec<Prefix<u32>>,
    pub announced: Vec<Prefix<u32>>,
    pub nh: NextHop,
}

impl Message {
    pub fn updates(&self) -> impl Iterator<Item = RouteUpdate<u32>> + '_ {
        let w = self.withdrawn.iter().map(|&p| RouteUpdate::Withdraw(p));
        w.chain(
            self.announced
                .iter()
                .map(|&p| RouteUpdate::Announce(p, self.nh)),
        )
    }

    pub fn encode(&self) -> Vec<u8> {
        poptrie_bgp::Message::Update(poptrie_bgp::UpdateMsg {
            withdrawn_v4: self.withdrawn.clone(),
            announced_v4: self.announced.clone(),
            next_hop_v4: (!self.announced.is_empty()).then(|| nh_addr(self.nh)),
            ..poptrie_bgp::UpdateMsg::default()
        })
        .encode()
    }
}

/// A seeded stream with the §4.9 replay's mix against `routes`, cut
/// into bursts of exactly [`BURST`] route events in 1–3-route messages
/// (the paper's 23,446 updates came in 7,824 messages). Announcements
/// are 85% path changes of a present prefix to a different next hop and
/// 15% new /20–/24s; withdrawals remove a present prefix. Every event
/// changes the RIB.
pub fn update_bursts(
    routes: &[(Prefix<u32>, NextHop)],
    seed: u64,
    bursts: usize,
) -> Vec<Vec<Message>> {
    let mut r = rng(seed, 3);
    let max_nh = routes.iter().map(|&(_, nh)| nh).max().unwrap_or(1).max(2);
    let mut present: Vec<Prefix<u32>> = routes.iter().map(|&(p, _)| p).collect();
    let mut nh_of: HashMap<Prefix<u32>, NextHop> = routes.iter().copied().collect();
    let mut out = Vec::with_capacity(bursts);
    for _ in 0..bursts {
        let mut burst = Vec::new();
        let mut left = BURST;
        while left > 0 {
            let k = r.gen_range(1..=3usize).min(left);
            let mut m = Message {
                withdrawn: Vec::new(),
                announced: Vec::new(),
                nh: r.gen_range(1..=max_nh),
            };
            if r.gen_bool(ANNOUNCE_SHARE) {
                while m.announced.len() < k {
                    let p = if r.gen_bool(0.85) {
                        present[r.gen_range(0..present.len())]
                    } else {
                        let len = *[20u8, 22, 24, 24, 24].choose(&mut r).expect("non-empty");
                        Prefix::new(
                            (r.gen_range(1u32..=223) << 24) | (r.next_u32() & 0xFF_FFFF),
                            len,
                        )
                    };
                    if nh_of.get(&p) == Some(&m.nh) || m.announced.contains(&p) {
                        continue;
                    }
                    if nh_of.insert(p, m.nh).is_none() {
                        present.push(p);
                    }
                    m.announced.push(p);
                }
            } else {
                for _ in 0..k {
                    let p = present.swap_remove(r.gen_range(0..present.len()));
                    nh_of.remove(&p);
                    m.withdrawn.push(p);
                }
            }
            left -= k;
            burst.push(m);
        }
        out.push(burst);
    }
    out
}

/// The `vrf` tenant family, built the way `repro vrf` builds it: a base
/// feed of 64-/26 groups every tenant shares, plus sparse tenant-private
/// /26 deltas. The base is fixed; the seed draws the deltas.
pub struct Family {
    pub base: RadixTree<u32, NextHop>,
    pub groups: Vec<u32>,
    pub deltas: Vec<Vec<(Prefix<u32>, NextHop)>>,
}

impl Family {
    pub fn new(seed: u64) -> Self {
        let mut r = StdRng::seed_from_u64(0x7e4a_11f0);
        let mut base = RadixTree::new();
        let mut groups: Vec<u32> = Vec::with_capacity(GROUPS);
        while groups.len() < GROUPS {
            let g = r.next_u32() & (!0u32 << 12);
            if groups.contains(&g) {
                continue;
            }
            groups.push(g);
            let phase = groups.len() % 8;
            for i in 0..64u32 {
                base.insert(
                    Prefix::new(g | (i << 6), 26),
                    ((i as usize + phase) % 8 + 1) as NextHop,
                );
            }
        }
        let mut r = rng(seed, 4);
        let deltas = (0..TENANTS)
            .map(|_| {
                (0..DELTA_ROUTES)
                    .map(|_| {
                        (
                            Prefix::new(r.next_u32(), 26),
                            r.gen_range(1..=64u32) as NextHop,
                        )
                    })
                    .collect()
            })
            .collect();
        Family {
            base,
            groups,
            deltas,
        }
    }

    /// Tenant `t`'s RIB: the base feed plus its deltas.
    pub fn rib(&self, t: usize) -> RadixTree<u32, NextHop> {
        let mut rib = self.base.clone();
        for &(p, nh) in &self.deltas[t] {
            rib.insert(p, nh);
        }
        rib
    }
}

/// Every this many batches on `vrf` goes to tenant 0, the churned one:
/// about its Zipf share (13% of 1024 tenants at α = 1), but evenly
/// spaced, so its adoption delay measures the router rather than the
/// gaps a random draw leaves between its batches.
pub const CHURNED_EVERY: usize = 8;

/// `vrf` lookups: per batch a tenant (tenant 0 every
/// [`CHURNED_EVERY`]th batch, the rest Zipf-drawn by rank over tenants
/// 1..), and keys half inside the base groups, half uniform.
pub fn vrf_batches(family: &Family, seed: u64) -> (Vec<Vec<u32>>, Vec<u32>) {
    let zipf = Zipf::new(TENANTS - 1, TENANT_ZIPF);
    let mut z = xorshift(seed, 5);
    let mut r = rng(seed, 6);
    let tenants = (0..POOL)
        .map(|i| {
            if i % CHURNED_EVERY == 0 {
                0
            } else {
                zipf.sample(&mut z) as u32 + 1
            }
        })
        .collect();
    let keys = (0..POOL * BATCH)
        .map(|i| {
            if i % 2 == 0 {
                family.groups[r.gen_range(0..family.groups.len())] | (r.next_u32() & 0xFFF)
            } else {
                r.next_u32()
            }
        })
        .collect();
    (chunk(keys), tenants)
}

/// The update stream of the churned tenant: announcements of new /26es,
/// next-hop changes and withdrawals of the stream's own routes, never
/// touching a /26 that holds a lookup key of that tenant (`protected`,
/// keys >> 6) or a route the tenant already has. Lookups of the churned
/// tenant therefore keep their setup-time answers and stay checkable
/// batch by batch, while every update still changes the table.
pub fn vrf_updates(
    family: &Family,
    tenant: usize,
    protected: &HashSet<u32>,
    seed: u64,
    count: usize,
) -> Vec<RouteUpdate<u32>> {
    let mut r = rng(seed, 7);
    let existing: HashSet<Prefix<u32>> = family.rib(tenant).iter().map(|(p, _)| p).collect();
    let mut own: Vec<(Prefix<u32>, NextHop)> = Vec::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let roll = r.gen_range(0..4u32);
        if roll >= 2 || own.is_empty() {
            let p = Prefix::new(r.next_u32(), 26);
            if protected.contains(&(p.addr() >> 6))
                || existing.contains(&p)
                || own.iter().any(|&(q, _)| q == p)
            {
                continue;
            }
            let nh = r.gen_range(1..=64u32) as NextHop;
            own.push((p, nh));
            out.push(RouteUpdate::Announce(p, nh));
        } else if roll == 1 {
            let i = r.gen_range(0..own.len());
            let nh = (own[i].1 % 64) + 1;
            own[i].1 = nh;
            out.push(RouteUpdate::Announce(own[i].0, nh));
        } else {
            let (p, _) = own.swap_remove(r.gen_range(0..own.len()));
            out.push(RouteUpdate::Withdraw(p));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> Vec<(Prefix<u32>, NextHop)> {
        (0..2000u32)
            .map(|i| {
                (
                    Prefix::new(i.wrapping_mul(0x9E37_79B9), 8 + (i % 17) as u8),
                    (i % 30 + 1) as NextHop,
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        assert_eq!(uniform_batches(7), uniform_batches(7));
        assert_ne!(uniform_batches(7), uniform_batches(8));

        let table = small_table();
        assert_eq!(update_bursts(&table, 7, 4), update_bursts(&table, 7, 4));
        assert_ne!(update_bursts(&table, 7, 4), update_bursts(&table, 8, 4));

        let (a, b) = (Family::new(7), Family::new(8));
        assert_eq!(a.deltas, Family::new(7).deltas);
        assert_ne!(a.deltas, b.deltas);
        assert_eq!(a.groups, b.groups, "the base feed is fixed");
        assert_eq!(vrf_batches(&a, 7), vrf_batches(&a, 7));
        assert_ne!(vrf_batches(&a, 7), vrf_batches(&a, 8));
        let none = HashSet::new();
        assert_eq!(
            vrf_updates(&a, 0, &none, 7, 50),
            vrf_updates(&a, 0, &none, 7, 50)
        );
        assert_ne!(
            vrf_updates(&a, 0, &none, 7, 50),
            vrf_updates(&a, 0, &none, 8, 50)
        );
    }

    #[test]
    fn trace_keys_follow_the_seed() {
        let table = Dataset {
            name: "t".into(),
            routes: small_table(),
        };
        assert_eq!(trace_batches(&table, 3)[0], trace_batches(&table, 3)[0]);
        assert_ne!(trace_batches(&table, 3)[0], trace_batches(&table, 4)[0]);
    }

    #[test]
    fn bursts_have_exact_size_and_every_event_changes_the_rib() {
        let table = small_table();
        let mut rib: RadixTree<u32, NextHop> = RadixTree::from_routes(table.iter().copied());
        let bursts = update_bursts(&table, 11, 20);
        let (mut announced, mut withdrawn) = (0, 0);
        for burst in &bursts {
            assert_eq!(
                burst.iter().map(|m| m.updates().count()).sum::<usize>(),
                BURST
            );
            for m in burst {
                assert!(m.withdrawn.is_empty() || m.announced.is_empty());
                for u in m.updates() {
                    match u {
                        RouteUpdate::Announce(p, nh) => {
                            announced += 1;
                            assert_ne!(rib.insert(p, nh), Some(nh), "no-op announce");
                        }
                        RouteUpdate::Withdraw(p) => {
                            withdrawn += 1;
                            assert!(rib.remove(p).is_some(), "withdraw of an absent route");
                        }
                    }
                }
            }
        }
        let share = announced as f64 / (announced + withdrawn) as f64;
        assert!(
            (share - ANNOUNCE_SHARE).abs() < 0.08,
            "announce share {share}"
        );
    }

    #[test]
    fn wire_next_hops_round_trip() {
        for nh in [1, 2, 300, NextHop::MAX] {
            assert_eq!(nh_of(nh_addr(nh)), Some(nh));
        }
        assert_eq!(nh_of(Ipv4Addr::new(192, 0, 2, 1)), None);
    }

    #[test]
    fn vrf_updates_avoid_protected_keys() {
        let family = Family::new(5);
        let (batches, tenants) = vrf_batches(&family, 5);
        let protected: HashSet<u32> = batches
            .iter()
            .zip(&tenants)
            .filter(|(_, &t)| t == 0)
            .flat_map(|(b, _)| b.iter().map(|k| k >> 6))
            .collect();
        for u in vrf_updates(&family, 0, &protected, 5, 400) {
            let p = match u {
                RouteUpdate::Announce(p, _) | RouteUpdate::Withdraw(p) => p,
            };
            assert!(!protected.contains(&(p.addr() >> 6)));
        }
    }
}
