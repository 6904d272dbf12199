//! The load generator: one thread that submits lookup batches (closed or
//! open loop), feeds route updates, and matches every served batch to
//! the batch it submitted. It sleeps between events and never spins.
//!
//! The engine runs one worker, whose queue is FIFO, so the k-th
//! completion the batch hook reports is the k-th batch admitted.

use std::collections::VecDeque;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

use poptrie::sync::{RouteUpdate, SharedFib};
use poptrie::VrfId;
use poptrie_bgp::{Event, RouteEvent, Session};
use poptrie_engine::{Control, Ingress};

use crate::inputs::{nh_of, POOL};
use crate::spans::{Kind, SpanRef, Spans};

/// One batch in this many gets spans: at 50 Mlps a traced phase serves
/// over 10,000 batches a second, and every update keeps its spans anyway.
const BATCH_SPAN_SAMPLE: u64 = 8;

/// Closed loop: how long the generator sleeps between refills. The
/// batches in flight hold several ticks of work, so the worker never
/// waits for the generator.
const TICK: Duration = Duration::from_micros(250);

/// What the batch hook reports from the worker thread.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    pub at: Instant,
    pub version: u64,
    /// Answers that differ from the setup-time oracle; `None` when the
    /// batch has no oracle answers (`churn`).
    pub bad: Option<u32>,
}

/// One admitted or refused lookup batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchRec {
    pub tag: u8,
    pub seq: u64,
    pub pool: usize,
    /// When the batch was due (open loop) or handed to ingress (closed).
    pub t0: Instant,
    pub sub_start: Instant,
    pub sub_end: Instant,
    /// `None`: refused at ingress.
    pub done: Option<Instant>,
    pub version: u64,
    pub bad: Option<u32>,
    /// How late the generator submitted: after the due time (open loop)
    /// or after the completion that freed the slot (closed loop).
    pub lag: Duration,
}

/// One route update handed to the control plane.
#[derive(Debug, Clone, Copy)]
pub struct UpdRec {
    pub tag: u8,
    /// When the update was accepted: its UPDATE message handed to
    /// `Session::recv`, or `Control::send` returning.
    pub accepted: Instant,
    pub send: (Instant, Instant),
    /// `Control::send` accepted it.
    pub ok: bool,
    /// Root span of the update in a traced phase (0 = untraced).
    pub span: SpanRef,
}

/// The control-plane input of a workload.
pub enum Feed {
    Off,
    /// Encoded UPDATE bursts through a BGP session into `Control::send`.
    Bgp {
        session: Session,
        clock: Instant,
        bursts: Vec<Vec<Vec<u8>>>,
        next: usize,
        period: Duration,
        due: Instant,
    },
    /// Single updates at a fixed rate. With `gate`, an update is held
    /// until the table published the previous one, so every publish of
    /// that table carries exactly one update and its version numbers the
    /// updates.
    Singles {
        updates: Vec<RouteUpdate<u32>>,
        vrf: Option<VrfId>,
        gate: Option<(Arc<SharedFib<u32>>, u64)>,
        next: usize,
        period: Duration,
        due: Instant,
    },
}

impl Feed {
    /// Schedule the first delivery at `at`.
    pub fn start(&mut self, at: Instant) {
        match self {
            Feed::Off => {}
            Feed::Bgp { due, .. } | Feed::Singles { due, .. } => *due = at,
        }
    }
}

/// Counters of failed operations outside lookup batches.
#[derive(Debug, Default, Clone, Copy)]
pub struct Faults {
    pub bgp_errors: u64,
    pub control_refused: u64,
    pub unmatched_completions: u64,
}

pub struct LoadGen {
    pub ingress: Ingress<u32>,
    pub control: Control<u32>,
    pub rx: Receiver<Done>,
    pub batches: Vec<Arc<[u32]>>,
    /// Tenant of each pool batch (`vrf`).
    pub tenants: Option<Vec<u32>>,
    /// Closed loop: batches kept in flight. Open loop: `None` here and
    /// `period` set.
    pub inflight_target: Option<usize>,
    pub period: Option<Duration>,
    pub feed: Feed,
    pub tag: u8,
    pub recs: Vec<BatchRec>,
    pub ups: Vec<UpdRec>,
    /// Updates accepted by `Control::send`, grouped per burst.
    pub sent: Vec<Vec<RouteUpdate<u32>>>,
    /// `Session::recv` time per UPDATE message, with its tag.
    pub decode: Vec<(u8, Duration)>,
    pub faults: Faults,
    pub spans: Spans,
    /// Spans are recorded while this is set (the traced phase).
    pub tracing: bool,
    inflight: VecDeque<BatchRec>,
    next_pool: usize,
    next_due: Option<Instant>,
    /// Completion times of the slots freed since the last refill.
    freed: VecDeque<Instant>,
    seq: u64,
}

impl LoadGen {
    pub fn new(
        ingress: Ingress<u32>,
        control: Control<u32>,
        rx: Receiver<Done>,
        spans: Spans,
    ) -> Self {
        LoadGen {
            ingress,
            control,
            rx,
            batches: Vec::new(),
            tenants: None,
            inflight_target: None,
            period: None,
            feed: Feed::Off,
            tag: 0,
            recs: Vec::new(),
            ups: Vec::new(),
            sent: Vec::new(),
            decode: Vec::new(),
            faults: Faults::default(),
            spans,
            tracing: false,
            inflight: VecDeque::new(),
            next_pool: 0,
            next_due: None,
            freed: VecDeque::new(),
            seq: 0,
        }
    }

    /// Submit the next pool batch, due at `due` (open loop) or now.
    fn submit(&mut self, due: Option<Instant>, after: Instant) {
        let pool = self.next_pool % POOL;
        self.next_pool += 1;
        let batch = Arc::clone(&self.batches[pool]);
        let sub_start = Instant::now();
        let admitted = match &self.tenants {
            Some(t) => self
                .ingress
                .try_submit_vrf(VrfId::new(t[pool]), batch)
                .is_ok(),
            None => self.ingress.try_submit(batch).is_ok(),
        };
        let rec = BatchRec {
            tag: self.tag,
            seq: self.seq,
            pool,
            t0: due.unwrap_or(sub_start),
            sub_start,
            sub_end: Instant::now(),
            done: None,
            version: 0,
            bad: None,
            lag: sub_start.saturating_duration_since(after),
        };
        self.seq += 1;
        if admitted {
            self.inflight.push_back(rec);
        } else {
            self.finish(rec);
        }
    }

    fn finish(&mut self, rec: BatchRec) {
        if self.tracing && rec.seq.is_multiple_of(BATCH_SPAN_SAMPLE) {
            batch_spans(&mut self.spans, &rec);
        }
        self.recs.push(rec);
    }

    fn complete(&mut self, d: Done) {
        let Some(mut rec) = self.inflight.pop_front() else {
            self.faults.unmatched_completions += 1;
            return;
        };
        rec.done = Some(d.at);
        rec.version = d.version;
        rec.bad = d.bad;
        self.finish(rec);
        self.freed.push_back(d.at);
    }

    /// Run lookups (and the feed, when `feed_on`) until `until`. The
    /// generator sleeps between events and collects completions when it
    /// wakes, so the worker never has to wake it.
    pub fn drive(&mut self, until: Instant, feed_on: bool) {
        loop {
            while let Ok(d) = self.rx.try_recv() {
                self.complete(d);
            }
            let now = Instant::now();
            if now >= until {
                break;
            }
            let mut wake = until;
            if let Some(n) = self.inflight_target {
                while self.inflight.len() < n {
                    let after = self.freed.pop_front().unwrap_or(now);
                    self.submit(None, after);
                }
                wake = wake.min(now + TICK);
            }
            if let Some(p) = self.period {
                let mut due = self.next_due.unwrap_or(now);
                while due <= now {
                    self.submit(Some(due), due);
                    due += p;
                }
                self.next_due = Some(due);
                wake = wake.min(due);
            }
            if feed_on {
                if let Some(w) = self.pump_feed(now) {
                    wake = wake.min(w);
                }
            }
            self.freed.clear();
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
        }
    }

    /// Stop submitting and collect every batch still in flight.
    pub fn drain(&mut self, limit: Duration) {
        let deadline = Instant::now() + limit;
        while !self.inflight.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.rx.recv_timeout(deadline - now) {
                Ok(d) => self.complete(d),
                Err(_) => break,
            }
        }
        // Whatever is left was admitted and never served.
        while let Some(rec) = self.inflight.pop_front() {
            self.finish(rec);
        }
    }

    /// Deliver what the feed has due at `now`; returns when it next has
    /// something to do.
    fn pump_feed(&mut self, now: Instant) -> Option<Instant> {
        let tag = self.tag;
        match &mut self.feed {
            Feed::Off => None,
            Feed::Bgp {
                session,
                clock,
                bursts,
                next,
                period,
                due,
            } => {
                if *next >= bursts.len() {
                    return None;
                }
                if now < *due {
                    return Some(*due);
                }
                // The whole burst is decoded first and then handed to the
                // control plane back to back, so the writer sees it as
                // one burst rather than racing the decoder.
                let mut routes: Vec<(usize, RouteEvent)> = Vec::new();
                let mut recv: Vec<(Instant, Instant)> = Vec::new();
                for (mi, msg) in bursts[*next].iter().enumerate() {
                    let r0 = Instant::now();
                    session.recv(r0.duration_since(*clock).as_nanos() as u64, msg);
                    let r1 = Instant::now();
                    recv.push((r0, r1));
                    self.decode.push((tag, r1 - r0));
                    for ev in session.drain_events() {
                        match ev {
                            Event::Routes { routes: rs, .. } => {
                                routes.extend(rs.into_iter().map(|r| (mi, r)))
                            }
                            Event::Transition { .. } => {}
                            _ => self.faults.bgp_errors += 1,
                        }
                    }
                    session.drain_actions();
                }
                let mut group = Vec::with_capacity(routes.len());
                for (mi, r) in routes {
                    let u = match r {
                        RouteEvent::AnnounceV4(p, a) => match nh_of(a) {
                            Some(nh) => RouteUpdate::Announce(p, nh),
                            None => {
                                self.faults.bgp_errors += 1;
                                continue;
                            }
                        },
                        RouteEvent::WithdrawV4(p) => RouteUpdate::Withdraw(p),
                        RouteEvent::AnnounceV6(..) | RouteEvent::WithdrawV6(..) => {
                            self.faults.bgp_errors += 1;
                            continue;
                        }
                    };
                    let s0 = Instant::now();
                    let ok = self.control.send(u).is_ok();
                    let s1 = Instant::now();
                    if ok {
                        group.push(u);
                    } else {
                        self.faults.control_refused += 1;
                    }
                    let id = self.ups.len() as u64;
                    let mut span = 0;
                    if self.tracing {
                        let sp = &mut self.spans;
                        span = sp.record("bench.update", Kind::Update, id, 0, recv[mi].0, s1);
                        sp.record("bgp.recv", Kind::Update, id, span, recv[mi].0, recv[mi].1);
                        sp.record("control.send", Kind::Update, id, span, s0, s1);
                    }
                    self.ups.push(UpdRec {
                        tag,
                        accepted: recv[mi].0,
                        send: (s0, s1),
                        ok,
                        span,
                    });
                }
                self.sent.push(group);
                *next += 1;
                *due += *period;
                Some(*due)
            }
            Feed::Singles {
                updates,
                vrf,
                gate,
                next,
                period,
                due,
            } => {
                if *next >= updates.len() {
                    return None;
                }
                if now < *due {
                    return Some(*due);
                }
                if let Some((fib, v0)) = gate {
                    if fib.version() < *v0 + self.sent.len() as u64 {
                        // The previous update is not published yet.
                        return Some(now + Duration::from_micros(200));
                    }
                }
                let u = updates[*next];
                *next += 1;
                *due += *period;
                let s0 = Instant::now();
                let ok = match vrf {
                    Some(id) => self.control.send_vrf(*id, u).is_ok(),
                    None => self.control.send(u).is_ok(),
                };
                let s1 = Instant::now();
                if ok {
                    self.sent.push(vec![u]);
                } else {
                    self.faults.control_refused += 1;
                }
                let id = self.ups.len() as u64;
                let mut span = 0;
                if self.tracing {
                    span = self
                        .spans
                        .record("bench.update", Kind::Update, id, 0, s0, s1);
                    self.spans
                        .record("control.send", Kind::Update, id, span, s0, s1);
                }
                self.ups.push(UpdRec {
                    tag,
                    accepted: s1,
                    send: (s0, s1),
                    ok,
                    span,
                });
                Some(*due)
            }
        }
    }
}

/// The spans of one batch: from due (or submit) to served, the ingress
/// call, and the engine's queue plus service time; in an open loop also
/// the generator's lateness.
fn batch_spans(spans: &mut Spans, r: &BatchRec) {
    let end = r.done.unwrap_or(r.sub_end);
    let root = spans.record("bench.batch", Kind::Batch, r.seq, 0, r.t0, end);
    if r.t0 < r.sub_start {
        spans.record("bench.gen_lag", Kind::Batch, r.seq, root, r.t0, r.sub_start);
    }
    spans.record(
        "queue.submit",
        Kind::Batch,
        r.seq,
        root,
        r.sub_start,
        r.sub_end,
    );
    if let Some(done) = r.done {
        spans.record("engine.serve", Kind::Batch, r.seq, root, r.sub_end, done);
    }
}
