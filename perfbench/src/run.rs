//! One benchmark run: make the inputs, set the router up (several times,
//! for `setup_s`), drive the workload, check every answer, and turn what
//! was recorded into metrics.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use poptrie::sync::{FibSnapshot, RouteUpdate, SharedFib};
use poptrie::{BatchBackend, PoptrieConfig, VrfId};
use poptrie_bgp::{Message as Wire, OpenMsg, Session, SessionConfig, State};
use poptrie_engine::{BatchHook, Engine, EngineConfig, EngineReport, EngineTelemetry, PublishHook};
use poptrie_rib::{NextHop, RadixTree, NO_ROUTE};
use poptrie_vrf::VrfTable;

use crate::host::{peak_rss_mib, CpuTimes};
use crate::inputs::{self, Family, Message, BATCH, POOL, TENANTS};
use crate::loadgen::{BatchRec, Done, Feed, LoadGen};
use crate::metrics::{median, quantile, sliced_quantile, Metrics};
use crate::probes;
use crate::spans::{Kind, Spans};

/// The fixed table of `steady` and `churn` (531,489 routes).
const TABLE: &str = "REAL-Tier1-A";
/// Direct-pointing bits of the table (the paper's s = 18).
const TABLE_S: u8 = 18;
/// Direct-pointing bits of a tenant table, as `repro vrf`.
const TENANT_S: u8 = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Ingress queue depth: 13 s of `churn`'s offered load. When the host
/// stops the generator (a stolen vCPU can stall for a second), it submits
/// every overdue batch on waking; they must show as latency from their
/// due time, not as batches the router refused.
const QUEUE_BATCHES: usize = 65_536;
/// Closed loop: batches in flight, about 1.3 ms of work on `steady`.
const INFLIGHT: usize = 16;
/// `churn`'s offered lookup rate, about a third of `steady` capacity on
/// a 2-vCPU host.
const OPEN_LOOP_MLPS: f64 = 20.0;
const BURSTS_PER_S: u32 = 50;
const VRF_UPDATES_PER_S: u32 = 200;
/// `steady`'s post-window update tail: single updates, 3 ms apart. A
/// publish (a full trie clone) takes the writer about 0.7 ms, and up to
/// twice that when the host's memory is busy; at this spacing the writer
/// stays under half loaded, so updates do not queue behind each other.
const TAIL_UPDATES: usize = 1000;
const TAIL_PERIOD: Duration = Duration::from_millis(3);
const WARMUP: Duration = Duration::from_millis(500);
/// Lookups keep flowing this long after the last update so its adoption
/// is observed.
const SETTLE: Duration = Duration::from_millis(300);
/// Slice lengths of the sliced rates and quantiles (see
/// `metrics::sliced_quantile`). Convergence slices are shorter because a
/// burst's updates converge together: a 250 ms slice still holds a dozen
/// `churn` bursts or over a hundred single updates.
const RATE_SLICE_S: f64 = 1.0;
const LATENCY_SLICE_S: f64 = 0.25;
const CONVERGE_SLICE_S: f64 = 0.25;

/// Phase tags of batches and updates.
const WARM: u8 = 0;
const WINDOW: u8 = 1;
const TRACED: u8 = 2;
const TAIL: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Churn,
    Vrf,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Churn => "churn",
            Workload::Vrf => "vrf",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub const USAGE: &str =
    "usage: perfbench --workload <steady|churn|vrf> --seed <n> [--seconds <n>] [--trace <0|1>]";

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10u64, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "steady" => Workload::Steady,
                        "churn" => Workload::Churn,
                        "vrf" => Workload::Vrf,
                        w => return Err(format!("unknown workload {w:?}")),
                    })
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = number()?,
                "--trace" => {
                    trace = match number()? {
                        0 => false,
                        1 => true,
                        t => return Err(format!("--trace must be 0 or 1, not {t}")),
                    }
                }
                f => return Err(format!("unknown flag {f}")),
            }
        }
        if !(1..=60).contains(&seconds) {
            return Err(format!("--seconds must be 1..=60, not {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

/// Everything a run produced.
pub struct Outcome {
    /// Every metric measured, end-to-end and per-layer.
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// What failed, by kind (empty when nothing did).
    pub failures: Vec<(&'static str, u64)>,
    /// Traced closed-loop runs: ns per lookup layer by layer, with the
    /// gap to the row above named.
    pub ledger: Vec<(&'static str, f64, &'static str)>,
    pub steal_share: f64,
    pub spans: Option<Spans>,
}

/// Inputs and oracle answers, made before any timing starts.
struct Prep {
    batches: Vec<Arc<[u32]>>,
    tenants: Option<Vec<u32>>,
    /// Oracle answers per pool batch, keyed by the batch's key pointer
    /// (the batch hook sees only the keys).
    expected: Option<Arc<HashMap<usize, Expected>>>,
    descent_ratio: f64,
    /// `steady`/`churn`: the table's RIB before any update.
    oracle: Option<RadixTree<u32, NextHop>>,
    bursts: Vec<Vec<Message>>,
    singles: Vec<RouteUpdate<u32>>,
    family: Option<Family>,
    leaf_capacity: u32,
}

fn table_config() -> PoptrieConfig {
    PoptrieConfig::new()
        .direct_bits(TABLE_S)
        .build()
        .expect("s = 18 is valid")
}

fn tenant_config() -> PoptrieConfig {
    PoptrieConfig::new()
        .direct_bits(TENANT_S)
        .build()
        .expect("s = 8 is valid")
}

fn arcs(batches: Vec<Vec<u32>>) -> Vec<Arc<[u32]>> {
    batches.into_iter().map(Arc::from).collect()
}

/// One pool batch's oracle answers and their [`checksum`].
struct Expected {
    sum: [u64; 2],
    answers: Vec<NextHop>,
}

/// Two weighted sums of a batch's answers. The batch hook compares these
/// instead of the answers, so checking reads only the answers the worker
/// just wrote; one wrong answer always changes the first sum.
fn checksum(nhs: &[NextHop]) -> [u64; 2] {
    let mut sum = [0u64; 2];
    for (i, &n) in nhs.iter().enumerate() {
        let (n, i) = (u64::from(n) + 1, i as u64);
        sum[0] = sum[0].wrapping_add(n.wrapping_mul(2 * i + 1));
        sum[1] = sum[1].wrapping_add(n.wrapping_mul(n).wrapping_mul(i + 1));
    }
    sum
}

/// Oracle answers of `batches` (each against its own RIB) and the share
/// of keys whose longest match is longer than `s`.
fn oracle_answers(
    batches: &[Arc<[u32]>],
    rib_of: impl Fn(usize) -> Arc<RadixTree<u32, NextHop>>,
    s: u8,
) -> (HashMap<usize, Expected>, f64) {
    let mut deep = 0usize;
    let mut map = HashMap::with_capacity(batches.len());
    for (i, b) in batches.iter().enumerate() {
        let rib = rib_of(i);
        let answers: Vec<NextHop> = b
            .iter()
            .map(|&k| {
                let (nh, _, len) = rib.lookup_with_depth(k);
                deep += usize::from(len.is_some_and(|l| l > s));
                nh.copied().unwrap_or(NO_ROUTE)
            })
            .collect();
        let sum = checksum(&answers);
        map.insert(b.as_ptr() as usize, Expected { sum, answers });
    }
    (map, deep as f64 / (batches.len() * BATCH) as f64)
}

fn prepare(args: &Args) -> Prep {
    let updates_window = WARMUP.as_secs_f64() + args.seconds as f64 + 1.0;
    match args.workload {
        Workload::Steady | Workload::Churn => {
            let table = poptrie_tablegen::dataset(TABLE);
            let oracle = Arc::new(table.to_rib());
            let (batches, bursts) = if args.workload == Workload::Steady {
                let tail = TAIL_UPDATES.div_ceil(inputs::BURST);
                (
                    arcs(inputs::uniform_batches(args.seed)),
                    inputs::update_bursts(&table.routes, args.seed, tail),
                )
            } else {
                let n = (updates_window * f64::from(BURSTS_PER_S)).ceil() as usize;
                (
                    arcs(inputs::trace_batches(&table, args.seed)),
                    inputs::update_bursts(&table.routes, args.seed, n),
                )
            };
            let (expected, descent_ratio) =
                oracle_answers(&batches, |_| Arc::clone(&oracle), TABLE_S);
            let steady = args.workload == Workload::Steady;
            let singles = if steady {
                bursts
                    .iter()
                    .flatten()
                    .flat_map(Message::updates)
                    .take(TAIL_UPDATES)
                    .collect()
            } else {
                Vec::new()
            };
            Prep {
                batches,
                tenants: None,
                expected: steady.then(|| Arc::new(expected)),
                descent_ratio,
                oracle: Some(Arc::try_unwrap(oracle).unwrap_or_else(|a| (*a).clone())),
                bursts: if steady { Vec::new() } else { bursts },
                singles,
                family: None,
                leaf_capacity: 0,
            }
        }
        Workload::Vrf => {
            let family = Family::new(args.seed);
            let (keys, tenants) = inputs::vrf_batches(&family, args.seed);
            let batches = arcs(keys);
            let mut ribs: HashMap<u32, Arc<RadixTree<u32, NextHop>>> = HashMap::new();
            for &t in &tenants {
                ribs.entry(t)
                    .or_insert_with(|| Arc::new(family.rib(t as usize)));
            }
            let (expected, descent_ratio) =
                oracle_answers(&batches, |i| Arc::clone(&ribs[&tenants[i]]), TENANT_S);
            let protected: HashSet<u32> = batches
                .iter()
                .zip(&tenants)
                .filter(|(_, &t)| t == 0)
                .flat_map(|(b, _)| b.iter().map(|k| k >> 6))
                .collect();
            let n = (updates_window * f64::from(VRF_UPDATES_PER_S)).ceil() as usize;
            let singles = inputs::vrf_updates(&family, 0, &protected, args.seed, n);
            // Size the shared arena from one tenant compiled privately,
            // with room for every tenant's deltas and the update stream.
            let leaves = poptrie::Fib::compile(family.rib(0), tenant_config())
                .poptrie()
                .stats()
                .leaves;
            let leaf_capacity =
                (leaves * 4 + TENANTS * 24 * 8 + n * 64 + (1 << 17)).next_power_of_two() as u32;
            Prep {
                batches,
                tenants: Some(tenants),
                expected: Some(Arc::new(expected)),
                descent_ratio,
                oracle: None,
                bursts: Vec::new(),
                singles,
                family: Some(family),
                leaf_capacity,
            }
        }
    }
}

/// One set-up of the router, hooks attached.
struct Built {
    engine: Engine<u32>,
    fib: Arc<SharedFib<u32>>,
    vrfs: Option<Arc<VrfTable<u32>>>,
    rx: mpsc::Receiver<Done>,
    publishes: Arc<Mutex<Vec<Publish>>>,
    setup_s: f64,
    compile_s: f64,
}

/// One publish of the engine's FIB, seen by the publish hook: its
/// version, the writer's cumulative drained-event count at that moment
/// (the writer drains the control channel in order, so update `i`, 0-based
/// in send order, is in the first publish whose count exceeds `i`), and
/// when.
#[derive(Debug, Clone, Copy)]
struct Publish {
    version: u64,
    events: u64,
    at: Instant,
}

/// Dataset synthesis (or the tenant family), compile, and
/// `Engine::start`: everything up to the first submit.
fn build(args: &Args, prep: &Prep, rep: usize, spans: &mut Spans) -> Built {
    let t0 = Instant::now();
    let (fib, vrfs, tc0, tc1) = match args.workload {
        Workload::Steady | Workload::Churn => {
            let rib = poptrie_tablegen::dataset(TABLE).to_rib();
            let tc0 = Instant::now();
            let fib = Arc::new(SharedFib::compile(rib, table_config()));
            (fib, None, tc0, Instant::now())
        }
        Workload::Vrf => {
            let family = Family::new(args.seed);
            let ribs: Vec<_> = (0..TENANTS).map(|t| family.rib(t)).collect();
            let tc0 = Instant::now();
            let table = VrfTable::shared(tenant_config(), prep.leaf_capacity);
            for rib in ribs {
                table.create_from(rib);
            }
            let tc1 = Instant::now();
            (
                Arc::new(SharedFib::with_config(tenant_config())),
                Some(Arc::new(table)),
                tc0,
                tc1,
            )
        }
    };

    let (tx, rx) = mpsc::channel();
    let expected = prep.expected.clone();
    let on_batch: BatchHook<u32> =
        Arc::new(move |_worker, keys: &[u32], nhs: &[NextHop], version| {
            let at = Instant::now();
            let bad = expected
                .as_ref()
                .map(|e| match e.get(&(keys.as_ptr() as usize)) {
                    Some(want) if want.sum == checksum(nhs) => 0,
                    Some(want) => {
                        want.answers.iter().zip(nhs).filter(|(a, b)| a != b).count() as u32
                    }
                    None => u32::MAX,
                });
            // The receiver is gone only after the run; late batches are moot.
            let _ = tx.send(Done { at, version, bad });
        });
    let telemetry: Arc<OnceLock<Arc<EngineTelemetry>>> = Arc::new(OnceLock::new());
    let publishes = Arc::new(Mutex::new(Vec::new()));
    let on_publish: PublishHook<u32> = {
        let (telemetry, publishes) = (Arc::clone(&telemetry), Arc::clone(&publishes));
        Arc::new(move |outcome, _| {
            let at = Instant::now();
            let events = telemetry.get().map_or(0, |t| t.update_events.get());
            publishes
                .lock()
                .expect("publish log lock: a panicking hook would have poisoned it")
                .push(Publish {
                    version: outcome.version,
                    events,
                    at,
                });
        })
    };
    let mut config = EngineConfig::new(1)
        .queue_capacity(QUEUE_BATCHES)
        .control_capacity(8192)
        .on_batch(on_batch)
        .on_publish(on_publish);
    if let Some(v) = &vrfs {
        config = config.vrfs(Arc::clone(v));
    }
    let engine = Engine::start(Arc::clone(&fib), config);
    let t1 = Instant::now();
    let _ = telemetry.set(engine.telemetry());

    let id = rep as u64;
    let root = spans.record("bench.setup", Kind::Setup, id, 0, t0, t1);
    spans.record("tablegen.synthesize", Kind::Setup, id, root, t0, tc0);
    spans.record("builder.compile", Kind::Setup, id, root, tc0, tc1);
    spans.record("engine.start", Kind::Setup, id, root, tc1, t1);
    Built {
        engine,
        fib,
        vrfs,
        rx,
        publishes,
        setup_s: (t1 - t0).as_secs_f64(),
        compile_s: (tc1 - tc0).as_secs_f64(),
    }
}

/// A passive BGP session brought up to Established.
fn established_session(clock: Instant) -> Result<Session, String> {
    let mut session = Session::new(SessionConfig::default());
    let now = || clock.elapsed().as_nanos() as u64;
    session.start(now());
    session.connected(now());
    let open = Wire::Open(OpenMsg {
        version: 4,
        asn: 65_001,
        hold_time: 90,
        bgp_id: 0xC000_0201,
        params: Vec::new(),
    });
    session.recv(now(), &open.encode());
    session.recv(now(), &Wire::Keepalive.encode());
    session.drain_actions();
    session.drain_events();
    if session.state() == State::Established {
        Ok(session)
    } else {
        Err(format!("BGP session stuck in {:?}", session.state()))
    }
}

/// Per-window figures of the lookup path.
#[derive(Debug, Default, Clone, Copy)]
struct Window {
    mlps: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
}

fn served_ok(r: &BatchRec) -> bool {
    r.done.is_some() && r.bad.is_none_or(|b| b == 0)
}

/// Lookup figures of the batches tagged `tag`, in `[start, end)`. A
/// failed batch counts as missing every latency limit: its latency is
/// the whole window.
fn window(recs: &[BatchRec], tag: u8, start: Instant, end: Instant) -> Window {
    let len = (end - start).as_secs_f64();
    let at = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let lat: Vec<(f64, f64)> = recs
        .iter()
        .filter(|r| r.tag == tag)
        .map(|r| {
            let us = match r.done {
                Some(d) if served_ok(r) => (d - r.t0).as_secs_f64() * 1e6,
                _ => len * 1e6,
            };
            (at(r.t0), us)
        })
        .collect();
    let slices = ((len / RATE_SLICE_S).floor() as usize).max(1);
    let width = len / slices as f64;
    let mut served = vec![0usize; slices];
    for r in recs.iter().filter(|r| served_ok(r)) {
        let d = r.done.expect("served");
        if d >= start && d < end {
            served[((at(d) / width) as usize).min(slices - 1)] += BATCH;
        }
    }
    let rates: Vec<f64> = served.iter().map(|&k| k as f64 / width / 1e6).collect();
    Window {
        mlps: median(&rates),
        p50_us: sliced_quantile(&lat, 0.5, LATENCY_SLICE_S),
        p90_us: sliced_quantile(&lat, 0.9, LATENCY_SLICE_S),
        p99_us: sliced_quantile(&lat, 0.99, LATENCY_SLICE_S),
    }
}

/// Convergence of each accepted update: when a worker first served a
/// batch from a snapshot containing it.
struct Converged {
    /// `(accepted, converge ms)` per update of the measured tags.
    converge: Vec<(f64, f64)>,
    /// Publish → adoption, ms (engine FIB only).
    adopt_ms: Vec<f64>,
    unconverged: u64,
}

fn converge(
    load: &mut LoadGen,
    first_version: Option<(u64, &[u32])>,
    publishes: &[Publish],
    tags: &[u8],
    origin: Instant,
) -> Converged {
    // Completions in serving order; versions never decrease along it.
    let mut served: Vec<(Instant, u64)> = load
        .recs
        .iter()
        .filter(|r| match first_version {
            Some((_, tenants)) => tenants[r.pool] == 0,
            None => true,
        })
        .filter_map(|r| r.done.map(|d| (d, r.version)))
        .collect();
    served.sort_by_key(|&(d, _)| d);
    let mut out = Converged {
        converge: Vec::new(),
        adopt_ms: Vec::new(),
        unconverged: 0,
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    // `i` counts accepted updates, which is what the writer drains;
    // `id` is the update's position, the id its spans were recorded with.
    for (i, (id, u)) in load
        .ups
        .iter()
        .enumerate()
        .filter(|(_, u)| u.ok)
        .enumerate()
    {
        let i = i as u64;
        let (version, published) = match first_version {
            // Gated VRF feed: the tenant publishes once per update.
            Some((v0, _)) => (v0 + i + 1, None),
            None => {
                let p = publishes.partition_point(|p| p.events <= i);
                match publishes.get(p) {
                    Some(p) => (p.version, Some(p.at)),
                    None => {
                        out.unconverged += 1;
                        continue;
                    }
                }
            }
        };
        let Some(&(adopted, _)) = served.get(served.partition_point(|&(_, v)| v < version)) else {
            out.unconverged += 1;
            continue;
        };
        if u.span != 0 {
            let (spans, id, s1) = (&mut load.spans, id as u64, u.send.1);
            match published {
                Some(p) => {
                    spans.record("writer.publish", Kind::Update, id, u.span, s1, p);
                    spans.record("worker.adopt", Kind::Update, id, u.span, p, adopted);
                }
                None => {
                    spans.record("engine.converge", Kind::Update, id, u.span, s1, adopted);
                }
            }
            spans.set_end(u.span, adopted);
        }
        if tags.contains(&u.tag) {
            let t = u.accepted.saturating_duration_since(origin).as_secs_f64();
            out.converge
                .push((t, ms(adopted.saturating_duration_since(u.accepted))));
            if let Some(p) = published {
                out.adopt_ms.push(ms(adopted.saturating_duration_since(p)));
            }
        }
    }
    out
}

/// Probe `snap` against `oracle` on `keys`: `(probes, mismatches)`.
fn check(
    snap: &FibSnapshot<u32>,
    oracle: &RadixTree<u32, NextHop>,
    keys: impl Iterator<Item = u32>,
) -> (u64, u64) {
    let (mut n, mut bad) = (0, 0);
    for k in keys {
        n += 1;
        bad += u64::from(snap.lookup(k) != oracle.lookup(k).copied());
    }
    (n, bad)
}

fn apply(oracle: &mut RadixTree<u32, NextHop>, updates: &[Vec<RouteUpdate<u32>>]) {
    for &u in updates.iter().flatten() {
        match u {
            RouteUpdate::Announce(p, nh) => {
                oracle.insert(p, nh);
            }
            RouteUpdate::Withdraw(p) => {
                oracle.remove(p);
            }
        }
    }
}

fn update_addrs(updates: &[Vec<RouteUpdate<u32>>]) -> impl Iterator<Item = u32> + '_ {
    updates.iter().flatten().flat_map(|&u| {
        let p = match u {
            RouteUpdate::Announce(p, _) | RouteUpdate::Withdraw(p) => p,
        };
        [p.first_addr(), p.last_addr()]
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    let prep = prepare(args);

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut compile = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous set-up first, so peak memory is one router.
        if let Some(b) = built.take() {
            let Built { engine, .. } = b;
            engine.shutdown(Duration::from_secs(10));
        }
        let b = build(args, &prep, rep, &mut spans);
        setup.push(b.setup_s);
        compile.push(b.compile_s);
        built = Some(b);
    }
    let Built {
        engine,
        fib,
        vrfs,
        rx,
        publishes,
        ..
    } = built.expect("SETUP_REPS >= 1");

    let mut feed = match args.workload {
        Workload::Steady => Feed::Singles {
            updates: prep.singles.clone(),
            vrf: None,
            gate: None,
            next: 0,
            period: TAIL_PERIOD,
            due: origin,
        },
        Workload::Churn => {
            let clock = Instant::now();
            Feed::Bgp {
                session: established_session(clock)?,
                clock,
                bursts: prep
                    .bursts
                    .iter()
                    .map(|b| b.iter().map(Message::encode).collect())
                    .collect(),
                next: 0,
                period: Duration::from_secs(1) / BURSTS_PER_S,
                due: origin,
            }
        }
        Workload::Vrf => {
            let tenant = vrfs
                .as_ref()
                .and_then(|v| v.get(VrfId::new(0)))
                .ok_or("tenant 0 missing")?;
            let v0 = tenant.version();
            Feed::Singles {
                updates: prep.singles.clone(),
                vrf: Some(VrfId::new(0)),
                gate: Some((tenant, v0)),
                next: 0,
                period: Duration::from_secs(1) / VRF_UPDATES_PER_S,
                due: origin,
            }
        }
    };
    let vrf_v0 = vrfs
        .as_ref()
        .and_then(|v| v.get(VrfId::new(0)))
        .map(|t| t.version());
    let default_v0 = fib.version();

    let steady = args.workload == Workload::Steady;
    let mut load = LoadGen::new(engine.ingress(), engine.control(), rx, spans);
    // Room for every record up front: growing a vector of a few hundred
    // thousand records copies tens of megabytes on the worker's core.
    let run_s = args.seconds as usize + 6;
    load.recs.reserve(run_s * 25_000);
    load.ups
        .reserve(run_s * BURSTS_PER_S as usize * inputs::BURST);
    load.batches = prep.batches.clone();
    load.tenants = prep.tenants.clone();
    if args.workload == Workload::Churn {
        load.period = Some(Duration::from_secs_f64(
            BATCH as f64 / (OPEN_LOOP_MLPS * 1e6),
        ));
    } else {
        load.inflight_target = Some(INFLIGHT);
    }

    // The generator shares core 0 with the engine's one worker (which the
    // engine pins there) and leaves the other core to the control-plane
    // writer. Floating, it lands beside the writer during a publish and
    // is descheduled for milliseconds, which would put the generator's
    // stalls, not the router's, into every tail.
    poptrie_engine::pin_current_thread(0);
    // Warm-up: caches fill and the update stream reaches steady state.
    let t = Instant::now();
    if !steady {
        feed.start(t);
    }
    load.feed = feed;
    load.tag = WARM;
    load.drive(t + WARMUP, !steady);

    // The measured window: whole, or untraced then traced halves.
    let half = Duration::from_secs(args.seconds) / 2;
    let phases: Vec<(u8, Duration)> = if args.trace {
        vec![(WINDOW, half), (TRACED, half)]
    } else {
        vec![(WINDOW, Duration::from_secs(args.seconds))]
    };
    let cpu0 = CpuTimes::now();
    let mut windows = Vec::new();
    for &(tag, len) in &phases {
        load.tracing = tag == TRACED;
        load.tag = tag;
        let start = Instant::now();
        load.drive(start + len, !steady);
        windows.push((tag, start, Instant::now()));
    }
    let cpu1 = CpuTimes::now();
    if steady {
        let t = Instant::now();
        load.feed.start(t);
        load.tag = TAIL;
        load.drive(
            t + TAIL_PERIOD * TAIL_UPDATES as u32 + Duration::from_millis(10),
            true,
        );
    }
    load.tracing = false;
    load.tag = WARM;
    load.drive(Instant::now() + SETTLE, false);
    load.drain(Duration::from_secs(5));
    let report: EngineReport = engine.shutdown(Duration::from_secs(10));
    let steal_share = cpu0.steal_share(&cpu1);

    let mut m = Metrics::default();
    let mut failures: Vec<(&'static str, u64)> = Vec::new();
    let mut attempted = load.recs.len() as u64 + load.ups.len() as u64;

    // Convergence of every accepted update.
    let publishes = publishes.lock().expect("publish log lock").clone();
    let tenants_of_pool = prep.tenants.clone().unwrap_or_default();
    let measured: &[u8] = if steady { &[TAIL] } else { &[WINDOW, TRACED] };
    let conv = converge(
        &mut load,
        vrf_v0.map(|v| (v, tenants_of_pool.as_slice())),
        &publishes,
        measured,
        origin,
    );

    // Per-batch answers: a batch is checked against its setup-time
    // oracle answers while it was served from a snapshot that has them
    // (always on vrf, whose checked keys no update touches; before the
    // first update on steady; never on churn).
    let checkable = |r: &BatchRec| match args.workload {
        Workload::Steady => r.version == default_v0,
        Workload::Vrf => true,
        Workload::Churn => false,
    };
    let refused = load.recs.iter().filter(|r| r.done.is_none()).count() as u64;
    let wrong = load
        .recs
        .iter()
        .filter(|r| checkable(r) && r.bad.is_some_and(|b| b > 0))
        .count() as u64;
    failures.push(("refused or unserved lookup batches", refused));
    failures.push(("lookup batches with a wrong next hop", wrong));
    failures.push(("refused control sends", load.faults.control_refused));
    failures.push(("BGP errors", load.faults.bgp_errors));
    failures.push((
        "completions with no submitted batch",
        load.faults.unmatched_completions,
    ));
    failures.push(("updates never adopted by a worker", conv.unconverged));
    failures.push((
        "engine faults (respawns, leaked threads)",
        report.writer_respawns
            + report.workers.iter().map(|w| w.respawns).sum::<u64>()
            + report.leaked_threads as u64,
    ));

    // The final tables against oracles with the same updates applied.
    let bytes_per_route = match (&prep.oracle, &vrfs, &prep.family) {
        (Some(initial), _, _) => {
            let mut oracle = initial.clone();
            apply(&mut oracle, &load.sent);
            let snap = fib.snapshot();
            let keys = prep.batches.iter().flat_map(|b| b.iter().copied());
            let (n, bad) = check(&snap, &oracle, keys.chain(update_addrs(&load.sent)));
            attempted += n + 3;
            failures.push(("final FIB answers differing from the oracle", bad));
            let (invariants, audit, routes) = fib.with_fib(|f| {
                (
                    f.poptrie().check_invariants().is_ok() && f.rib().check_invariants().is_ok(),
                    f.poptrie().audit().is_ok(),
                    f.rib().len(),
                )
            });
            failures.push(("trie or RIB invariant violations", u64::from(!invariants)));
            failures.push(("trie audit failures", u64::from(!audit)));
            failures.push((
                "route count differing from the oracle",
                u64::from(routes != oracle.len()),
            ));
            snap.stats().memory_bytes as f64 / routes.max(1) as f64
        }
        (None, Some(vrfs), Some(family)) => {
            let audit = vrfs.audit();
            if let Err(e) = &audit {
                eprintln!("perfbench: VrfTable::audit: {e}");
            }
            failures.push(("VrfTable::audit failures", u64::from(audit.is_err())));
            let mut oracle = family.rib(0);
            apply(&mut oracle, &load.sent);
            let snap = vrfs.snapshot(VrfId::new(0)).ok_or("tenant 0 missing")?;
            let keys = prep
                .batches
                .iter()
                .zip(&tenants_of_pool)
                .filter(|(_, &t)| t == 0)
                .flat_map(|(b, _)| b.iter().copied());
            let (n0, bad0) = check(&snap, &oracle, keys.chain(update_addrs(&load.sent)));
            // Every other tenant: untouched version, oracle answers on
            // base-group keys and on its own deltas.
            let (mut n, mut bad, mut moved) = (n0, bad0, 0u64);
            for t in 1..TENANTS {
                let id = VrfId::new(t as u32);
                let (Some(table), Some(snap)) = (vrfs.get(id), vrfs.snapshot(id)) else {
                    moved += 1;
                    continue;
                };
                moved += u64::from(table.version() != 0);
                let rib = family.rib(t);
                let keys = prep.batches[0][..256].iter().copied();
                let (dn, db) = check(
                    &snap,
                    &rib,
                    keys.chain(family.deltas[t].iter().map(|(p, _)| p.first_addr())),
                );
                n += dn;
                bad += db;
            }
            attempted += n + 1 + TENANTS as u64;
            failures.push(("tenant answers differing from the oracle", bad));
            failures.push(("untouched tenants whose table changed", moved));
            vrfs.memory().bytes_per_route()
        }
        _ => unreachable!("steady and churn keep an oracle; vrf keeps its family"),
    };

    // End-to-end.
    let win = |tag: u8| {
        let &(_, s, e) = windows.iter().find(|w| w.0 == tag).expect("phase ran");
        window(&load.recs, tag, s, e)
    };
    let main = win(WINDOW);
    let failed: u64 = failures.iter().map(|f| f.1).sum();
    let converge_p = |q| sliced_quantile(&conv.converge, q, CONVERGE_SLICE_S);
    m.set("setup_s", median(&setup));
    m.set("fwd_mlps", main.mlps);
    m.set("lat_p50_us", main.p50_us);
    m.set("lat_p90_us", main.p90_us);
    m.set("converge_p50_ms", converge_p(0.5));
    // The p99s swing with the host's stalls far beyond any bound a
    // regression gate could use on a small VM; they are recorded in every
    // run and printed by the traced one.
    m.set("engine.lat_p99_us", main.p99_us);
    m.set("engine.converge_p99_ms", converge_p(0.99));
    m.set(
        "success_ratio",
        1.0 - failed as f64 / attempted.max(1) as f64,
    );
    m.set("bytes_per_route", bytes_per_route);

    let mut ledger = Vec::new();
    if args.trace {
        let traced = win(TRACED);
        let us = |ns: u64| ns as f64 / 1e3;
        let ms = |ns: u64| ns as f64 / 1e6;
        m.set("builder.compile_s", median(&compile));
        m.set("trie.descent_ratio", prep.descent_ratio);
        m.set("worker.service_p50_us", us(report.service.p50_ns));
        m.set("worker.service_p99_us", us(report.service.p99_ns));
        m.set("queue.wait_p50_us", us(report.queue_wait.p50_ns));
        m.set("queue.wait_p99_us", us(report.queue_wait.p99_ns));
        let ns_per_lookup = report.service.mean_ns as f64 / BATCH as f64;
        m.set("worker.ns_per_lookup", ns_per_lookup);
        let busy = report.service.mean_ns as f64 * report.service.samples as f64;
        let span = load
            .recs
            .iter()
            .filter_map(|r| r.done.map(|d| (r.sub_start, d)))
            .fold(None, |acc: Option<(Instant, Instant)>, (s, d)| {
                Some(acc.map_or((s, d), |(a, b)| (a.min(s), b.max(d))))
            })
            .map_or(1.0, |(s, d)| (d - s).as_nanos() as f64);
        m.set("worker.busy_share", busy / span);
        m.set("ingress.refused_batches", report.dropped_batches as f64);
        m.set("writer.publish_lag_p50_ms", ms(report.convergence.p50_ns));
        m.set("writer.publish_lag_p99_ms", ms(report.convergence.p99_ns));
        // The VRF path has no publish hook: adoption is what convergence
        // adds beyond the writer's publish lag.
        let adopt = if conv.adopt_ms.is_empty() {
            (median(&conv.converge.iter().map(|c| c.1).collect::<Vec<_>>())
                - ms(report.convergence.p50_ns))
            .max(0.0)
        } else {
            median(&conv.adopt_ms)
        };
        m.set("worker.adopt_lag_p50_ms", adopt);
        let tenant_publishes = match (&vrfs, vrf_v0) {
            (Some(v), Some(v0)) => v.get(VrfId::new(0)).map_or(0, |t| t.version() - v0),
            _ => 0,
        };
        m.set(
            "writer.publishes",
            (report.publishes + tenant_publishes) as f64,
        );
        m.set(
            "writer.coalesced_ratio",
            report.updates_coalesced as f64 / report.update_events.max(1) as f64,
        );
        let decode: Vec<f64> = load
            .decode
            .iter()
            .filter(|d| d.0 == WINDOW || d.0 == TRACED)
            .map(|d| d.1.as_secs_f64() * 1e6)
            .collect();
        m.set("bgp.decode_us", median(&decode));
        let lags: Vec<f64> = {
            let mut v: Vec<f64> = load
                .recs
                .iter()
                .filter(|r| r.tag == WINDOW || r.tag == TRACED)
                .map(|r| r.lag.as_secs_f64() * 1e6)
                .collect();
            v.sort_by(f64::total_cmp);
            v
        };
        m.set("bench.gen_lag_p99_us", quantile(&lags, 0.99));
        m.set(
            "bench.trace_overhead",
            traced.p50_us / main.p50_us.max(1e-9) - 1.0,
        );
        m.set("host.steal_share", steal_share);

        // Layer probes on one thread, the engine stopped.
        let snaps = |fib: &SharedFib<u32>| -> Vec<Arc<FibSnapshot<u32>>> {
            match (&vrfs, &prep.tenants) {
                (Some(v), Some(t)) => t
                    .iter()
                    .map(|&t| v.snapshot(VrfId::new(t)).expect("pool tenants exist"))
                    .collect(),
                _ => vec![fib.snapshot(); POOL],
            }
        };
        let set_tier = |tier: BatchBackend| match (&vrfs, &prep.tenants) {
            (Some(v), Some(t)) => {
                let ids: HashSet<u32> = t.iter().copied().collect();
                for id in ids {
                    v.get(VrfId::new(id))
                        .expect("pool tenants exist")
                        .set_batch_backend(tier);
                }
            }
            _ => {
                fib.set_batch_backend(tier);
            }
        };
        let active = BatchBackend::detect();
        m.set(
            "trie.lookup_ns",
            probes::lookup_ns(&snaps(&fib), &prep.batches, &mut load.spans),
        );
        let mut tiers = HashMap::new();
        for (name, tier) in [
            ("trie.batch_ns.scalar", BatchBackend::Scalar),
            ("trie.batch_ns.avx2", BatchBackend::Avx2),
            ("trie.batch_ns.avx512", BatchBackend::Avx512),
        ] {
            set_tier(tier);
            let ns = probes::batch_ns(&snaps(&fib), &prep.batches, tier, &mut load.spans);
            tiers.insert(tier, ns);
            m.set(name, ns);
        }
        m.set(
            "worker.overhead_ns",
            ns_per_lookup - tiers[&active.clamp_available()],
        );

        let costs = match (&prep.oracle, &prep.family) {
            (Some(initial), _) => {
                let shared = SharedFib::compile(initial.clone(), table_config());
                let fib = shared.with_fib(|f| f.clone());
                probes::update_costs(&shared, fib, &load.sent, &mut load.spans)
            }
            (None, Some(family)) => {
                let shared = SharedFib::compile(family.rib(0), tenant_config());
                let fib = shared.with_fib(|f| f.clone());
                probes::update_costs(&shared, fib, &load.sent, &mut load.spans)
            }
            _ => probes::UpdateCosts::default(),
        };
        m.set("update.apply_us", costs.apply_us);
        m.set("sync.update_batch_us", costs.update_batch_us);
        m.set("sync.publish_us", costs.publish_us);
        match (&vrfs, &prep.tenants) {
            (Some(v), Some(t)) => {
                let s = v
                    .intern_stats()
                    .ok_or("shared VRF group has intern stats")?;
                m.set(
                    "vrf.dedup_ratio",
                    s.dedup_hits as f64 / (s.dedup_hits + s.fresh_allocs).max(1) as f64,
                );
                m.set(
                    "vrf.snapshot_ns",
                    probes::vrf_snapshot_ns(v, t, &mut load.spans),
                );
            }
            _ => {
                m.set("vrf.dedup_ratio", 0.0);
                m.set("vrf.snapshot_ns", 0.0);
            }
        }

        if args.workload != Workload::Churn {
            let widest = BatchBackend::widest_available();
            let e2e = 1e3 / main.mlps.max(1e-9);
            let l = |n: &str| m.get(n).expect("measured above");
            let widest_name = match widest {
                BatchBackend::Scalar => "trie.batch_ns.scalar",
                BatchBackend::Avx2 => "trie.batch_ns.avx2",
                BatchBackend::Avx512 => "trie.batch_ns.avx512",
            };
            ledger = vec![
                ("trie.lookup_ns", l("trie.lookup_ns"), "-"),
                (
                    "trie.batch_ns.scalar",
                    l("trie.batch_ns.scalar"),
                    "batching and prefetch",
                ),
                (widest_name, l(widest_name), "SIMD dispatch tier"),
                (
                    "worker.ns_per_lookup",
                    ns_per_lookup,
                    "worker overhead: snapshot acquire, hook, accounting",
                ),
                (
                    "end_to_end",
                    e2e,
                    "handoff: queue, wake-ups, feeder, idle worker",
                ),
            ];
        }
    }
    // Peak memory last, after every copy the checks and probes made.
    m.set("rss_mib", peak_rss_mib());

    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        failures,
        ledger,
        steal_share,
        spans: args.trace.then_some(load.spans),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn checksum_catches_any_single_wrong_answer() {
        let answers: Vec<NextHop> = (0..BATCH as u32).map(|i| (i % 7) as NextHop).collect();
        let sum = checksum(&answers);
        for i in [0, 1, 2000, BATCH - 1] {
            for wrong in [NO_ROUTE, 6, NextHop::MAX] {
                let mut a = answers.clone();
                if a[i] == wrong {
                    continue;
                }
                a[i] = wrong;
                assert_ne!(checksum(&a), sum, "answer {i} -> {wrong}");
            }
        }
        let mut swapped = answers.clone();
        swapped.swap(3, 4);
        assert_ne!(checksum(&swapped), sum, "answers in the wrong order");
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse("--workload churn --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Churn, 9, 3, true)
        );
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload vrf").is_err());
        assert!(parse("--workload vrf --seed 1 --trace 2").is_err());
        assert!(parse("--workload vrf --seed 1 --seconds 0").is_err());
        assert!(parse("--workload vrf --seed").is_err());
        for w in crate::metrics::WORKLOADS {
            assert_eq!(
                parse(&format!("--workload {w} --seed 1"))
                    .unwrap()
                    .workload
                    .name(),
                w
            );
        }
    }
}
