//! The traced run's per-layer measurements, taken from outside the
//! program by timing calls into each layer's public functions.
//!
//! Three levels are peeled from the outside in, each on the same
//! captured client frames (the workload's framing, `PEEL_STREAMS`
//! sessions), closed loop, one request at a time:
//!
//! 1. `tcp`: a TCP client round trip (encode, write, wait, read, decode);
//! 2. `duplex`: the in-process `Duplex` round trip (router hop + pipeline);
//! 3. `pipeline`: the bare `SessionPipeline::feed` calls.
//!
//! A request is the run of frames sent since the previous reply up to and
//! including the next frame that provokes one; its time runs from its
//! first send to its first reply. A level's self time is its time minus
//! the next level's on the same request. The component calls (feature
//! update, classifier, AUC, eager session, sanitizer, toolkit dispatch,
//! wire codec, WAL append) are timed over the same inputs.

use std::io::{Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grandma_core::{EagerRecognizer, FeatureExtractor, FeatureMask};
use grandma_events::EventSanitizer;
use grandma_serve::wal::WalShard;
use grandma_serve::{
    encode_client, encode_server, ClientFrame, Duplex, FrameBuffer, FsyncPolicy, MetricsSnapshot,
    PipelineConfig, ServerFrame, SessionPipeline, SessionRouter, WalConfig, WIRE_VERSION,
};
use grandma_toolkit::{GestureClass, GestureHandler, GestureHandlerConfig, HandlerRef, Interface};

use crate::inputs::{frame_ids, with_session, Inputs, Stream};
use crate::measure::{self, median, percentile_of, Summary};
use crate::trace::Span;
use crate::Metrics;

/// Sessions replayed through each peeled level.
const PEEL_STREAMS: usize = 48;
/// Repetitions of each component timing; the median is reported.
const REPS: usize = 7;
/// WAL appends timed (fsync each).
const WAL_APPENDS: usize = 1500;
/// A level that sees no reply for this long fails the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Service counters at one instant.
pub struct Counters {
    router: Arc<SessionRouter>,
    at: Instant,
    snap: MetricsSnapshot,
    busy_ns: u64,
    pool: (u64, u64),
    allocs: u64,
    ctx: u64,
}

/// Service counters over an interval, per unit of work.
#[derive(Default)]
pub struct CounterDelta {
    pub shard_busy_frac: f64,
    pub shard_ns_per_point: f64,
    pub queue_highwater: f64,
    pub busy_rejections: f64,
    pub pool_hit_frac: f64,
    pub wakeups_per_frame: f64,
    pub flushes_per_reply: f64,
    pub ctx_switches_per_frame: f64,
    pub server_allocs_per_frame: f64,
    pub wal_appends_per_frame: f64,
}

fn shard_busy_ns(router: &SessionRouter) -> u64 {
    (0..router.shard_count())
        .map(|i| {
            router
                .metrics()
                .shard(i)
                .busy_ns
                .load(std::sync::atomic::Ordering::Relaxed)
        })
        .sum()
}

impl Counters {
    pub fn take(router: &Arc<SessionRouter>) -> Self {
        Self {
            router: router.clone(),
            at: Instant::now(),
            snap: router.metrics().snapshot(),
            busy_ns: shard_busy_ns(router),
            pool: router.batch_pool().stats(),
            allocs: measure::counted_allocations(),
            ctx: measure::voluntary_ctx_switches(),
        }
    }

    /// Counters since [`Counters::take`], over `client_frames` frames the
    /// load generator sent.
    pub fn delta(&self, client_frames: u64) -> CounterDelta {
        let (router, before) = (&self.router, &self.snap);
        let wall_ns = self.at.elapsed().as_nanos() as f64;
        let after = router.metrics().snapshot();
        let frames = client_frames.max(1) as f64;
        let busy = shard_busy_ns(router).saturating_sub(self.busy_ns) as f64;
        let points = after.points_ingested.saturating_sub(before.points_ingested) as f64;
        let (hits, misses) = router.batch_pool().stats();
        let hits = hits.saturating_sub(self.pool.0) as f64;
        let takes = hits + misses.saturating_sub(self.pool.1) as f64;
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        CounterDelta {
            shard_busy_frac: busy / (wall_ns * router.shard_count().max(1) as f64),
            shard_ns_per_point: busy / points.max(1.0),
            queue_highwater: after
                .shards
                .iter()
                .map(|s| s.queue_highwater)
                .max()
                .unwrap_or(0) as f64,
            busy_rejections: d(after.busy_rejections, before.busy_rejections),
            pool_hit_frac: hits / takes.max(1.0),
            wakeups_per_frame: d(after.reactor_wakeups, before.reactor_wakeups) / frames,
            flushes_per_reply: d(after.writer_flushes, before.writer_flushes)
                / d(after.frames_sent, before.frames_sent).max(1.0),
            ctx_switches_per_frame: d(measure::voluntary_ctx_switches(), self.ctx) / frames,
            server_allocs_per_frame: d(measure::counted_allocations(), self.allocs) / frames,
            wal_appends_per_frame: d(after.wal_appends, before.wal_appends) / frames,
        }
    }
}

/// What the peel needs.
pub struct PeelInput<'a> {
    pub rec: &'a Arc<EagerRecognizer>,
    pub inputs: &'a Inputs,
    pub pipeline: &'a PipelineConfig,
    /// Events per client frame.
    pub batch: usize,
    pub router: &'a Arc<SessionRouter>,
    pub addr: SocketAddr,
    /// Directory the WAL timing may create and remove.
    pub wal_dir: &'a Path,
}

/// Peeled levels and component timings.
#[derive(Default)]
pub struct Peel {
    pub tcp_self_p50_us: f64,
    pub hop_p50_us: f64,
    pub pipeline_p50_us: f64,
    /// Client turnaround in the TCP level: last reply of one request to
    /// the first send of the next.
    pub turnaround_ns: Vec<f64>,
    /// Service counters over the TCP level.
    pub tcp_counters: CounterDelta,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub features_ns_per_point: f64,
    pub eager_ns_per_point: f64,
    pub classifier_ns_per_call: f64,
    pub auc_ns_per_call: f64,
    pub auc_ns_per_class: f64,
    pub sanitize_ns_per_event: f64,
    pub repairs_per_kevent: f64,
    pub toolkit_ns_per_event: f64,
    pub session_ns_per_event: f64,
    pub session_frames_per_event: f64,
    pub session_allocs_per_event: f64,
    /// Mouse points per event in the session streams.
    pub points_per_event: f64,
    pub decode_ns_per_frame: f64,
    pub encode_ns_per_frame: f64,
    pub wal_append_p50_us: f64,
    pub wal_append_p90_us: f64,
    pub wal_bytes_per_point: f64,
}

/// One client frame of a captured session and how many reply frames it
/// provokes.
struct Sent {
    frame: ClientFrame,
    replies: usize,
    /// Events in the frame (`Close` counts as none).
    events: std::ops::Range<usize>,
    close: bool,
}

/// A request: frames sent back to back, the last of which is answered.
struct Request {
    frames: Vec<Sent>,
    /// Reply frames the request provokes in total.
    replies: usize,
    stream: usize,
    /// `seq` of the first reply.
    first_seq: u32,
}

/// Splits the first [`PEEL_STREAMS`] streams into requests, framed the
/// way the workload frames them.
fn requests(inputs: &Inputs, batch: usize) -> Vec<Vec<Request>> {
    inputs
        .streams
        .iter()
        .take(PEEL_STREAMS)
        .enumerate()
        .map(|(index, s)| {
            let replies_in = |lo: u32, hi: u32| {
                s.reference
                    .iter()
                    .filter(|f| (lo..hi).contains(&frame_ids(f).1))
                    .count()
            };
            let mut sent = vec![Sent {
                frame: ClientFrame::Open { session: 0 },
                replies: 0,
                events: 0..0,
                close: false,
            }];
            let mut at = 0;
            for part in s.events.chunks(batch.max(1)) {
                let lo = part[0].0;
                let hi = lo + part.len() as u32;
                let frame = if batch > 1 {
                    ClientFrame::EventBatch {
                        session: 0,
                        events: part.to_vec(),
                    }
                } else {
                    ClientFrame::Event {
                        session: 0,
                        seq: part[0].0,
                        event: part[0].1,
                    }
                };
                sent.push(Sent {
                    frame,
                    replies: replies_in(lo, hi),
                    events: at..at + part.len(),
                    close: false,
                });
                at += part.len();
            }
            sent.push(Sent {
                frame: ClientFrame::Close {
                    session: 0,
                    seq: s.close_seq,
                },
                replies: replies_in(s.close_seq, s.close_seq + 1),
                events: at..at,
                close: true,
            });
            let mut out = Vec::new();
            let mut frames = Vec::new();
            let mut cursor = 0;
            for f in sent {
                let answered = f.replies > 0;
                frames.push(f);
                if answered {
                    let replies: usize = frames.iter().map(|f: &Sent| f.replies).sum();
                    let first_seq = frame_ids(&s.reference[cursor]).1;
                    cursor += replies;
                    out.push(Request {
                        frames: std::mem::take(&mut frames),
                        replies,
                        stream: index,
                        first_seq,
                    });
                }
            }
            out
        })
        .collect()
}

/// `frame` addressed to `session`.
fn readdress(frame: &ClientFrame, session: u64) -> ClientFrame {
    let mut f = frame.clone();
    match &mut f {
        ClientFrame::Open { session: s }
        | ClientFrame::Event { session: s, .. }
        | ClientFrame::EventBatch { session: s, .. }
        | ClientFrame::Close { session: s, .. }
        | ClientFrame::Resume { session: s, .. } => *s = session,
        ClientFrame::Hello { .. } | ClientFrame::Handoff { .. } => {}
    }
    f
}

/// Checks reply `index` of `stream` against its reference.
fn matches_reference(
    stream: &Stream,
    index: usize,
    frame: &ServerFrame,
    scratch: &mut Vec<u8>,
) -> bool {
    scratch.clear();
    encode_server(&with_session(frame, 0), scratch);
    stream.ref_frame(index) == Some(&scratch[..])
}

/// Level 1: closed-loop requests over one TCP connection.
fn tcp_level(
    addr: SocketAddr,
    inputs: &Inputs,
    all: &[Vec<Request>],
    session_base: u64,
    peel: &mut Peel,
) -> Result<Vec<(Instant, Instant)>, String> {
    let mut stream = crate::load::connect(addr).map_err(|e| format!("peel connect: {e}"))?;
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut bytes = Vec::new();
    let mut fb = FrameBuffer::new();
    let mut buf = vec![0u8; 64 * 1024];
    let mut scratch = Vec::new();
    let mut times = Vec::new();
    let mut last_reply: Option<Instant> = None;
    for (i, session_requests) in all.iter().enumerate() {
        let session = session_base + i as u64;
        let s = &inputs.streams[i];
        let mut cursor = 0;
        let mut ok = true;
        for req in session_requests {
            bytes.clear();
            for f in &req.frames {
                encode_client(&readdress(&f.frame, session), &mut bytes);
            }
            let start = Instant::now();
            if let Some(last) = last_reply {
                peel.turnaround_ns
                    .push(start.duration_since(last).as_nanos() as f64);
            }
            stream
                .write_all(&bytes)
                .map_err(|e| format!("peel write: {e}"))?;
            let mut first = None;
            let mut got = 0;
            while got < req.replies {
                while let Some(frame) = fb
                    .next_server()
                    .map_err(|e| format!("peel decode: {e:?}"))?
                {
                    first.get_or_insert_with(Instant::now);
                    ok &= matches_reference(s, cursor, &frame, &mut scratch);
                    cursor += 1;
                    got += 1;
                }
                if got >= req.replies {
                    break;
                }
                let n = stream
                    .read(&mut buf)
                    .map_err(|e| format!("peel read: {e}"))?;
                if n == 0 {
                    return Err("peel: connection closed".into());
                }
                fb.extend(&buf[..n]);
            }
            let end = first.unwrap_or_else(Instant::now);
            last_reply = Some(Instant::now());
            times.push((start, end));
        }
        peel.attempted += 1;
        if !ok || cursor != s.reference.len() {
            peel.failed += 1;
        }
    }
    Ok(times)
}

/// Level 2: the same requests through the in-process `Duplex`.
fn duplex_level(
    router: &Arc<SessionRouter>,
    inputs: &Inputs,
    all: &[Vec<Request>],
    session_base: u64,
    peel: &mut Peel,
) -> Result<Vec<(Instant, Instant)>, String> {
    let mut client = Duplex::connect(router.clone());
    client
        .send(&ClientFrame::Hello {
            version: WIRE_VERSION,
        })
        .map_err(|e| format!("duplex: {e}"))?;
    let mut scratch = Vec::new();
    let mut times = Vec::new();
    for (i, session_requests) in all.iter().enumerate() {
        let session = session_base + i as u64;
        let s = &inputs.streams[i];
        let mut cursor = 0;
        let mut ok = true;
        for req in session_requests {
            let start = Instant::now();
            for f in &req.frames {
                client
                    .send(&readdress(&f.frame, session))
                    .map_err(|e| format!("duplex: {e}"))?;
            }
            let mut first = None;
            for _ in 0..req.replies {
                let frame = client
                    .recv_timeout(REPLY_TIMEOUT)
                    .map_err(|e| format!("duplex: {e}"))?
                    .ok_or("duplex: reply timed out")?;
                first.get_or_insert_with(Instant::now);
                ok &= matches_reference(s, cursor, &frame, &mut scratch);
                cursor += 1;
            }
            let end = first.unwrap_or_else(Instant::now);
            times.push((start, end));
        }
        peel.attempted += 1;
        if !ok || cursor != s.reference.len() {
            peel.failed += 1;
        }
    }
    Ok(times)
}

/// Level 3: the same requests fed straight into a `SessionPipeline`.
fn pipeline_level(
    rec: &EagerRecognizer,
    config: &PipelineConfig,
    inputs: &Inputs,
    all: &[Vec<Request>],
) -> Vec<(Instant, Instant)> {
    let mut pipeline = SessionPipeline::new(0, config.clone());
    let mut out = Vec::new();
    let mut times = Vec::new();
    for (i, session_requests) in all.iter().enumerate() {
        let s = &inputs.streams[i];
        pipeline.recycle(0);
        for req in session_requests {
            out.clear();
            let start = Instant::now();
            let mut first = None;
            for f in &req.frames {
                for &(seq, event) in &s.events[f.events.clone()] {
                    pipeline.feed(rec, seq, event, &mut out);
                    if first.is_none() && !out.is_empty() {
                        first = Some(Instant::now());
                    }
                }
                if f.close {
                    pipeline.close(rec, s.close_seq, &mut out);
                    first.get_or_insert_with(Instant::now);
                }
            }
            let end = first.unwrap_or_else(Instant::now);
            times.push((start, end));
        }
    }
    times
}

/// Median over [`REPS`] runs of `f` of nanoseconds per unit of work;
/// `f` returns the units it did.
fn per_unit(mut f: impl FnMut() -> u64) -> f64 {
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        let units = f();
        samples.push(start.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    median(samples)
}

/// Times the component calls on the captured inputs.
fn components(input: &PeelInput<'_>, peel: &mut Peel) -> Result<(), String> {
    let rec = input.rec;
    let inputs = input.inputs;
    let mask = FeatureMask::all();
    let gestures: Vec<_> = inputs.testing.iter().map(|l| &l.gesture).collect();

    let mut fx = FeatureExtractor::new();
    peel.features_ns_per_point = per_unit(|| {
        let mut n = 0;
        for g in &gestures {
            fx.reset();
            for &p in g.points() {
                fx.update(p);
            }
            n += g.len() as u64;
            std::hint::black_box(fx.count());
        }
        n
    });
    peel.eager_ns_per_point = per_unit(|| {
        let mut n = 0;
        for g in &gestures {
            let mut session = rec.session();
            for &p in g.points() {
                std::hint::black_box(session.feed(p));
            }
            n += g.len() as u64;
        }
        n
    });

    // Whole-gesture features for the classifier, every prefix for the AUC.
    let finals: Vec<Vec<f64>> = gestures
        .iter()
        .map(|g| FeatureExtractor::extract(g, &mask).as_slice().to_vec())
        .collect();
    let mut prefixes = Vec::new();
    let width = mask.count();
    for g in &gestures {
        fx.reset();
        for (i, &p) in g.points().iter().enumerate() {
            fx.update(p);
            if i + 1 >= rec.config().min_subgesture_points {
                let mut v = vec![0.0; width];
                fx.masked_features_into(&mask, &mut v);
                prefixes.push(v);
            }
        }
    }
    let classifier = rec.full_classifier();
    let mut evaluations = vec![0.0; classifier.num_classes()];
    peel.classifier_ns_per_call = per_unit(|| {
        for v in &finals {
            std::hint::black_box(classifier.classify_slice_checked(v, &mut evaluations));
        }
        finals.len() as u64
    });
    peel.auc_ns_per_call = per_unit(|| {
        for v in &prefixes {
            std::hint::black_box(rec.auc().is_unambiguous_slice(v));
        }
        prefixes.len() as u64
    });
    peel.auc_ns_per_class = peel.auc_ns_per_call / rec.auc().kinds().len().max(1) as f64;

    let events: u64 = inputs.streams.iter().map(|s| s.events.len() as u64).sum();
    let mut cleaned = Vec::new();
    let mut repairs = 0u64;
    peel.sanitize_ns_per_event = per_unit(|| {
        repairs = 0;
        for s in &inputs.streams {
            let mut sanitizer = EventSanitizer::with_config(input.pipeline.sanitizer.clone());
            for &(_, e) in &s.events {
                cleaned.clear();
                sanitizer.process_into(e, &mut cleaned);
            }
            repairs += sanitizer.faults().len() as u64;
        }
        events
    });
    peel.repairs_per_kevent = repairs as f64 * 1e3 / events.max(1) as f64;

    let raw: Vec<Vec<_>> = inputs
        .streams
        .iter()
        .map(|s| s.events.iter().map(|&(_, e)| e).collect())
        .collect();
    let local = Rc::new((**rec).clone());
    let classes: Vec<GestureClass> = (0..classifier.num_classes())
        .map(|c| GestureClass::named(&format!("class{c}")))
        .collect();
    let mut dispatch = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let handler = Rc::new(std::cell::RefCell::new(GestureHandler::new(
            local.clone(),
            classes.clone(),
            GestureHandlerConfig::default(),
        )));
        let mut iface = Interface::new();
        let root: HandlerRef = handler.clone();
        iface.attach_root_handler(root);
        let start = Instant::now();
        for events in &raw {
            iface.run(events);
        }
        dispatch.push(start.elapsed().as_nanos() as f64 / events.max(1) as f64);
        std::hint::black_box(handler.borrow().traces().len());
    }
    peel.toolkit_ns_per_event = median(dispatch);

    let mut pipeline = SessionPipeline::new(0, input.pipeline.clone());
    let mut out = Vec::new();
    let mut frames = 0u64;
    let feed_all = |pipeline: &mut SessionPipeline, out: &mut Vec<ServerFrame>| {
        let mut produced = 0;
        for s in &inputs.streams {
            pipeline.recycle(0);
            for &(seq, e) in &s.events {
                out.clear();
                pipeline.feed(rec, seq, e, out);
                produced += out.len() as u64;
            }
        }
        produced
    };
    peel.session_ns_per_event = per_unit(|| {
        frames = feed_all(&mut pipeline, &mut out);
        events
    });
    peel.session_frames_per_event = frames as f64 / events.max(1) as f64;
    let points: u64 = inputs.streams.iter().map(|s| s.points).sum();
    peel.points_per_event = points as f64 / events.max(1) as f64;
    measure::set_uncounted(false);
    let before = measure::counted_allocations();
    feed_all(&mut pipeline, &mut out);
    let allocs = measure::counted_allocations() - before;
    measure::set_uncounted(true);
    peel.session_allocs_per_event = allocs as f64 / events.max(1) as f64;

    // Wire codec on the captured client bytes and reference replies.
    let mut client_bytes = Vec::new();
    let mut wal_records: Vec<(Vec<u8>, u64)> = Vec::new();
    for (i, reqs) in requests(inputs, input.batch).iter().enumerate() {
        for f in reqs.iter().flat_map(|r| &r.frames) {
            let mut one = Vec::new();
            encode_client(&readdress(&f.frame, i as u64), &mut one);
            client_bytes.extend_from_slice(&one);
            let points = inputs.streams[i].events[f.events.clone()]
                .iter()
                .filter(|(_, e)| matches!(e.kind, grandma_events::EventKind::MouseMove))
                .count() as u64;
            wal_records.push((one, points));
        }
    }
    peel.decode_ns_per_frame = per_unit(|| {
        let mut fb = FrameBuffer::new();
        let mut n = 0;
        for part in client_bytes.chunks(16 * 1024) {
            fb.extend(part);
            while let Ok(Some(view)) = fb.next_client_view() {
                std::hint::black_box(&view);
                n += 1;
            }
        }
        n
    });
    let replies: Vec<&ServerFrame> = inputs.streams.iter().flat_map(|s| &s.reference).collect();
    let mut encoded = Vec::with_capacity(64 * 1024);
    peel.encode_ns_per_frame = per_unit(|| {
        for chunk in replies.chunks(256) {
            encoded.clear();
            for f in chunk {
                encode_server(f, &mut encoded);
            }
            std::hint::black_box(&encoded);
        }
        replies.len() as u64
    });

    // WAL appends with fsync, on the workload's own frames.
    let _ = std::fs::remove_dir_all(input.wal_dir);
    let mut wal = WalShard::open(WalConfig::new(input.wal_dir, FsyncPolicy::Sync), 0)
        .map_err(|e| format!("wal open: {e}"))?;
    let mut append_ns = Vec::with_capacity(WAL_APPENDS);
    let (mut bytes, mut points) = (0u64, 0u64);
    for (record, p) in wal_records.iter().cycle().take(WAL_APPENDS) {
        let start = Instant::now();
        bytes += wal
            .append_frame(record)
            .map_err(|e| format!("wal append: {e}"))?;
        append_ns.push(start.elapsed().as_nanos() as f64);
        points += p;
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(input.wal_dir);
    append_ns.sort_by(f64::total_cmp);
    peel.wal_append_p50_us = measure::percentile(&append_ns, 0.5) / 1e3;
    peel.wal_append_p90_us = measure::percentile(&append_ns, 0.9) / 1e3;
    peel.wal_bytes_per_point = bytes as f64 / points.max(1) as f64;
    Ok(())
}

/// Runs the three peeled levels and the component timings.
pub fn peel(input: PeelInput<'_>) -> Result<Peel, String> {
    let mut peel = Peel::default();
    let all = requests(input.inputs, input.batch);
    let client_frames: u64 = all.iter().flatten().map(|r| r.frames.len() as u64).sum();
    let counters = Counters::take(input.router);
    let tcp = tcp_level(input.addr, input.inputs, &all, 3 << 32, &mut peel)?;
    peel.tcp_counters = counters.delta(client_frames);
    let duplex = duplex_level(input.router, input.inputs, &all, 4 << 32, &mut peel)?;
    let pipe = pipeline_level(input.rec, input.pipeline, input.inputs, &all);

    // Spans: one per request per level, each level's span the parent of
    // the same request's span at the next level in; request ids are
    // (stream, first answered seq).
    let ids: Vec<(u64, u32)> = all
        .iter()
        .flatten()
        .map(|r| (r.stream as u64, r.first_seq))
        .collect();
    let origin = tcp.first().map_or_else(Instant::now, |t| t.0);
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    for (level, times) in [("tcp", &tcp), ("duplex", &duplex), ("pipeline", &pipe)] {
        let parent_base = peel.spans.len().checked_sub(times.len());
        for (i, (&(start, end), &(session, seq))) in times.iter().zip(&ids).enumerate() {
            peel.spans.push(Span {
                name: level,
                start_ns: ns(start),
                end_ns: ns(end),
                parent: parent_base.map(|b| b + i),
                session,
                seq,
            });
        }
    }
    let durations = |times: &[(Instant, Instant)]| -> Vec<f64> {
        times
            .iter()
            .map(|(s, e)| e.saturating_duration_since(*s).as_nanos() as f64)
            .collect()
    };
    let (tcp, duplex, pipe) = (durations(&tcp), durations(&duplex), durations(&pipe));
    let self_of = |outer: &[f64], inner: &[f64]| -> f64 {
        percentile_of(outer.iter().zip(inner).map(|(o, i)| o - i).collect(), 0.5) / 1e3
    };
    peel.tcp_self_p50_us = self_of(&tcp, &duplex);
    peel.hop_p50_us = self_of(&duplex, &pipe);
    peel.pipeline_p50_us = percentile_of(pipe, 0.5) / 1e3;
    components(&input, &mut peel)?;
    Ok(peel)
}

/// Everything the per-layer report draws on.
pub struct Report<'a> {
    pub untraced: &'a Summary,
    pub traced: &'a Summary,
    pub traced_late_ns: &'a [f64],
    /// Service counters over the traced phase (transport workloads).
    pub counters: &'a CounterDelta,
    pub peel: &'a Peel,
    pub uses_transport: bool,
}

/// Puts every per-layer metric.
pub fn report(m: &mut Metrics, r: &Report<'_>) {
    let p = r.peel;
    let c = if r.uses_transport {
        r.counters
    } else {
        &p.tcp_counters
    };
    m.put("core.features.ns_per_point", p.features_ns_per_point, "ns");
    m.put(
        "core.classifier.ns_per_call",
        p.classifier_ns_per_call,
        "ns",
    );
    m.put("core.auc.ns_per_call", p.auc_ns_per_call, "ns");
    m.put("core.auc.ns_per_class", p.auc_ns_per_class, "ns");
    m.put("core.eager.ns_per_point", p.eager_ns_per_point, "ns");
    m.put(
        "events.sanitize.ns_per_event",
        p.sanitize_ns_per_event,
        "ns",
    );
    m.put(
        "events.sanitize.repairs_per_kevent",
        p.repairs_per_kevent,
        "count",
    );
    m.put(
        "toolkit.dispatch.ns_per_event",
        p.toolkit_ns_per_event,
        "ns",
    );
    m.put("serve.session.ns_per_event", p.session_ns_per_event, "ns");
    m.put(
        "serve.session.frames_per_event",
        p.session_frames_per_event,
        "ratio",
    );
    m.put(
        "serve.session.allocs_per_event",
        p.session_allocs_per_event,
        "ratio",
    );
    m.put(
        "serve.wire.decode_ns_per_frame",
        p.decode_ns_per_frame,
        "ns",
    );
    m.put(
        "serve.wire.encode_ns_per_frame",
        p.encode_ns_per_frame,
        "ns",
    );
    m.put("serve.router.hop_p50_us", p.hop_p50_us, "us");
    m.put("serve.router.shard_busy_frac", c.shard_busy_frac, "ratio");
    m.put(
        "serve.router.shard_ns_per_point",
        c.shard_ns_per_point,
        "ns",
    );
    m.put("serve.router.queue_highwater", c.queue_highwater, "count");
    m.put("serve.router.busy_rejections", c.busy_rejections, "count");
    m.put("serve.pool.hit_frac", c.pool_hit_frac, "ratio");
    m.put("serve.tcp.wakeups_per_frame", c.wakeups_per_frame, "ratio");
    m.put("serve.tcp.flushes_per_reply", c.flushes_per_reply, "ratio");
    m.put(
        "serve.tcp.ctx_switches_per_frame",
        c.ctx_switches_per_frame,
        "ratio",
    );
    m.put(
        "serve.tcp.server_allocs_per_frame",
        c.server_allocs_per_frame,
        "ratio",
    );
    m.put("serve.tcp.transport_p50_us", p.tcp_self_p50_us, "us");
    m.put("serve.wal.append_p50_us", p.wal_append_p50_us, "us");
    m.put("serve.wal.append_p90_us", p.wal_append_p90_us, "us");
    m.put("serve.wal.bytes_per_point", p.wal_bytes_per_point, "bytes");
    m.put(
        "serve.wal.appends_per_frame",
        c.wal_appends_per_frame,
        "ratio",
    );
    let late = if r.uses_transport {
        r.traced_late_ns.to_vec()
    } else {
        p.turnaround_ns.clone()
    };
    m.put(
        "loadgen.late_p50_us",
        percentile_of(late.clone(), 0.5) / 1e3,
        "us",
    );
    m.put("loadgen.late_p99_us", percentile_of(late, 0.99) / 1e3, "us");
    m.put("loadgen.feedback_p99_us", r.traced.feedback_p99_us, "us");
    m.put(
        "trace.overhead_frac",
        r.traced.cpu_ns_per_point / r.untraced.cpu_ns_per_point - 1.0,
        "ratio",
    );
    // With a transport: the peeled levels' self times against the
    // untraced feedback p50. Without one, the pipeline is the outermost
    // level: its component calls against its own cost per event.
    let unattributed = if r.uses_transport {
        let attributed = p.tcp_self_p50_us + p.hop_p50_us + p.pipeline_p50_us;
        1.0 - attributed / r.untraced.feedback_p50_us
    } else {
        let components = p.sanitize_ns_per_event + p.points_per_event * p.eager_ns_per_point;
        1.0 - components / p.session_ns_per_event
    };
    m.put("trace.unattributed_frac", unattributed, "ratio");
}
