//! The TCP load generator: one connection, one writer (the calling
//! thread) and one reader thread, so load generation never takes more
//! than two threads and one connection.
//!
//! * Open loop ([`Mode::Open`]): simulated mice each send one `Event`
//!   frame per period, phase-staggered on a fixed tick; every event is
//!   timed from the tick it was due on.
//! * Closed loop ([`Mode::Closed`]): a fixed window of sessions in
//!   flight, each sent as `Open`, `EventBatch` frames and `Close`; a new
//!   session starts when one sees its `Closed` outcome.
//!
//! The reader byte-compares every reply frame with the stream's
//! `run_events_inproc` reference (session id rewritten to 0), and times
//! the first reply echoing each event's `seq`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grandma_serve::{
    encode_client, encode_event_batch, encode_server, ClientFrame, FrameBuffer, OutcomeKind,
    ServerFrame, WIRE_VERSION,
};

use crate::inputs::{frame_ids, with_session, Inputs};
use crate::measure::{self, Chunk, Chunker};
use crate::trace::{Span, MAX_SPANS};

/// Traffic shape of one load run.
#[derive(Clone, Copy)]
pub enum Mode {
    /// `mice` simulated mice, each sending one event every `period`
    /// ticks, on a `tick` grid.
    Open {
        mice: usize,
        period: u32,
        tick: Duration,
    },
    /// `window` sessions in flight, events in frames of `batch`.
    Closed { window: usize, batch: usize },
}

impl Mode {
    /// Events per second the open loop offers (0 for the closed loop).
    pub fn offered_rate(&self) -> f64 {
        match *self {
            Mode::Open { mice, period, tick } => {
                mice as f64 / (f64::from(period) * tick.as_secs_f64())
            }
            Mode::Closed { .. } => 0.0,
        }
    }
}

/// Timing plan of one load run.
pub struct Plan {
    pub mode: Mode,
    /// Untimed lead-in before measurement starts.
    pub warmup: Duration,
    /// Measured interval.
    pub measure: Duration,
    /// First session id; ids count up from here.
    pub session_base: u64,
    /// Record feedback for every `sample_every`-th `seq`.
    pub sample_every: u32,
    /// Record one span per timed reply.
    pub trace: bool,
}

/// What one load run saw.
pub struct LoadResult {
    pub chunks: Vec<Chunk>,
    pub attempted: u64,
    pub failed: u64,
    /// Generator lateness samples (ns): open loop, send time minus due
    /// time; closed loop, send time minus the moment the window slot
    /// freed.
    pub late_ns: Vec<f64>,
    /// Client frames written.
    pub frames_sent: u64,
    pub spans: Vec<Span>,
    pub problems: Vec<String>,
}

/// Per-session state shared by writer and reader.
struct Track {
    stream: usize,
    /// Due (open loop) or send (closed loop) time of each event, in ns
    /// since the run's origin.
    due_ns: Vec<AtomicU64>,
}

struct Shared {
    origin: Instant,
    measure_from: Instant,
    measure_until: Instant,
    tracks: Mutex<HashMap<u64, Arc<Track>>>,
    /// Sessions the writer started; final once `writer_done` is set.
    started: AtomicU64,
    writer_done: AtomicBool,
}

impl Shared {
    fn measuring(&self, now: Instant) -> bool {
        now >= self.measure_from && now < self.measure_until
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }
}

/// Connects and says `Hello`.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut bytes = Vec::new();
    encode_client(
        &ClientFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut bytes,
    );
    (&stream).write_all(&bytes)?;
    Ok(stream)
}

/// Drives one load run against the service at `addr`.
pub fn run(addr: SocketAddr, inputs: &Arc<Inputs>, plan: &Plan) -> std::io::Result<LoadResult> {
    let stream = connect(addr)?;
    let reader_stream = stream.try_clone()?;
    reader_stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let origin = Instant::now();
    let shared = Arc::new(Shared {
        origin,
        measure_from: origin + plan.warmup,
        measure_until: origin + plan.warmup + plan.measure,
        tracks: Mutex::new(HashMap::new()),
        started: AtomicU64::new(0),
        writer_done: AtomicBool::new(false),
    });
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let reader = {
        let shared = shared.clone();
        let inputs = inputs.clone();
        let sample_every = plan.sample_every.max(1);
        let trace = plan.trace;
        std::thread::Builder::new()
            .name("perfbench-reader".into())
            .spawn(move || {
                measure::set_uncounted(true);
                read_replies(
                    reader_stream,
                    &shared,
                    &inputs,
                    sample_every,
                    trace,
                    done_tx,
                )
            })?
    };
    let mut writer = Writer {
        stream,
        shared: shared.clone(),
        inputs: inputs.clone(),
        buf: Vec::with_capacity(16 * 1024),
        next_session: plan.session_base,
        next_stream: 0,
        frames_sent: 0,
        late_ns: Vec::new(),
    };
    let written = match plan.mode {
        Mode::Open { mice, period, tick } => writer.open_loop(mice, period, tick),
        Mode::Closed { window, batch } => writer.closed_loop(window, batch, &done_rx),
    };
    shared.writer_done.store(true, Ordering::SeqCst);
    let mut problems = Vec::new();
    if let Err(e) = written {
        problems.push(format!("write failed: {e}"));
        // Unblock the reader: nothing more will arrive.
        let _ = writer.stream.shutdown(std::net::Shutdown::Both);
    }
    let read = reader
        .join()
        .map_err(|_| std::io::Error::other("reader thread panicked"))?;
    let _ = writer.stream.shutdown(std::net::Shutdown::Both);
    problems.extend(read.problems);
    let started = shared.started.load(Ordering::SeqCst);
    let unfinished = started.saturating_sub(read.completed + read.failed);
    if unfinished > 0 {
        problems.push(format!("{unfinished} sessions never saw Closed"));
    }
    Ok(LoadResult {
        chunks: read.chunks,
        attempted: started,
        failed: read.failed + unfinished,
        late_ns: writer.late_ns,
        frames_sent: writer.frames_sent,
        spans: read.spans,
        problems,
    })
}

struct Writer {
    stream: TcpStream,
    shared: Arc<Shared>,
    inputs: Arc<Inputs>,
    buf: Vec<u8>,
    next_session: u64,
    next_stream: usize,
    frames_sent: u64,
    late_ns: Vec<f64>,
}

impl Writer {
    /// Registers a new session for the reader and returns its id, track
    /// and stream index.
    fn begin_session(&mut self) -> (u64, Arc<Track>) {
        let stream = self.next_stream % self.inputs.streams.len();
        self.next_stream += 1;
        let id = self.next_session;
        self.next_session += 1;
        let len = self.inputs.streams[stream].events.len();
        let track = Arc::new(Track {
            stream,
            due_ns: (0..len).map(|_| AtomicU64::new(0)).collect(),
        });
        self.shared
            .tracks
            .lock()
            .expect("track map lock poisoned")
            .insert(id, track.clone());
        self.shared.started.fetch_add(1, Ordering::SeqCst);
        (id, track)
    }

    fn send(&mut self, frame: &ClientFrame) -> std::io::Result<()> {
        self.buf.clear();
        encode_client(frame, &mut self.buf);
        self.stream.write_all(&self.buf)?;
        self.frames_sent += 1;
        Ok(())
    }

    fn open_loop(&mut self, mice: usize, period: u32, tick: Duration) -> std::io::Result<()> {
        measure::tighten_timer_slack();
        let period = period.max(1) as usize;
        // Per mouse: (session id, track, next event index).
        let mut active: Vec<Option<(u64, Arc<Track>, usize)>> = vec![None; mice];
        let start_until = self.shared.measure_until;
        let mut k: u64 = 0;
        loop {
            let due = self.shared.origin + tick * k as u32;
            let starting = due < start_until;
            if !starting && active.iter().all(Option::is_none) {
                return Ok(());
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let due_ns = self.shared.ns_since_origin(due);
            let phase = (k as usize) % period;
            for m in (phase..mice).step_by(period) {
                if active[m].is_none() && starting {
                    let (id, track) = self.begin_session();
                    self.send(&ClientFrame::Open { session: id })?;
                    active[m] = Some((id, track, 0));
                }
                let Some((id, track, next)) = active[m].take() else {
                    continue;
                };
                let inputs = self.inputs.clone();
                let s = &inputs.streams[track.stream];
                if let Some(&(seq, event)) = s.events.get(next) {
                    track.due_ns[next].store(due_ns, Ordering::Release);
                    self.send(&ClientFrame::Event {
                        session: id,
                        seq,
                        event,
                    })?;
                    let sent = Instant::now();
                    if self.shared.measuring(sent) {
                        self.late_ns
                            .push(sent.duration_since(due).as_nanos() as f64);
                    }
                    active[m] = Some((id, track, next + 1));
                } else {
                    let seq = s.close_seq;
                    self.send(&ClientFrame::Close { session: id, seq })?;
                }
            }
            k += 1;
        }
    }

    fn closed_loop(
        &mut self,
        window: usize,
        batch: usize,
        done_rx: &Receiver<Instant>,
    ) -> std::io::Result<()> {
        let batch = batch.max(1);
        let mut in_flight = 0usize;
        let mut freed_at: Option<Instant> = None;
        while Instant::now() < self.shared.measure_until {
            while in_flight < window.max(1) {
                let (id, track) = self.begin_session();
                self.send(&ClientFrame::Open { session: id })?;
                if let Some(freed) = freed_at.take() {
                    let sent = Instant::now();
                    if self.shared.measuring(sent) {
                        self.late_ns
                            .push(sent.duration_since(freed).as_nanos() as f64);
                    }
                }
                let inputs = self.inputs.clone();
                let s = &inputs.streams[track.stream];
                for part in s.events.chunks(batch) {
                    self.buf.clear();
                    encode_event_batch(id, part, &mut self.buf);
                    let sent_ns = self.shared.ns_since_origin(Instant::now());
                    for &(seq, _) in part {
                        track.due_ns[seq as usize].store(sent_ns, Ordering::Release);
                    }
                    self.stream.write_all(&self.buf)?;
                    self.frames_sent += 1;
                }
                self.send(&ClientFrame::Close {
                    session: id,
                    seq: s.close_seq,
                })?;
                in_flight += 1;
            }
            match done_rx.recv_timeout(Duration::from_secs(10)) {
                Ok(at) => {
                    in_flight -= 1;
                    freed_at = Some(at);
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(std::io::Error::other("no session completed for 10 s"))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(std::io::Error::other("reader stopped early"))
                }
            }
        }
        Ok(())
    }
}

struct ReadResult {
    chunks: Vec<Chunk>,
    completed: u64,
    failed: u64,
    spans: Vec<Span>,
    problems: Vec<String>,
}

/// A session the reader is following.
struct Following {
    track: Arc<Track>,
    /// Reference frames matched so far.
    cursor: usize,
    /// Highest `seq` already answered (frames arrive in `seq` order).
    answered: Option<u32>,
    mismatch: bool,
}

/// Replies with no new bytes for this long end the run as failed.
const STALL: Duration = Duration::from_secs(10);

fn read_replies(
    mut stream: TcpStream,
    shared: &Shared,
    inputs: &Inputs,
    sample_every: u32,
    trace: bool,
    done_tx: Sender<Instant>,
) -> ReadResult {
    let mut out = ReadResult {
        chunks: Vec::new(),
        completed: 0,
        failed: 0,
        spans: Vec::new(),
        problems: Vec::new(),
    };
    let mut following: HashMap<u64, Following> = HashMap::new();
    let mut fb = FrameBuffer::new();
    let mut chunk_buf = vec![0u8; 64 * 1024];
    let mut scratch = Vec::with_capacity(64);
    let mut chunker: Option<Chunker> = None;
    let mut last_progress = Instant::now();
    loop {
        if shared.writer_done.load(Ordering::SeqCst)
            && out.completed + out.failed >= shared.started.load(Ordering::SeqCst)
        {
            break;
        }
        let n = match stream.read(&mut chunk_buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if last_progress.elapsed() > STALL {
                    out.problems.push("replies stalled".into());
                    break;
                }
                continue;
            }
            Err(e) => {
                out.problems.push(format!("read failed: {e}"));
                break;
            }
        };
        let now = Instant::now();
        last_progress = now;
        if chunker.is_none() && shared.measuring(now) {
            chunker = Some(Chunker::new());
        }
        if now >= shared.measure_until {
            if let Some(c) = chunker.take() {
                out.chunks = c.finish();
            }
        }
        let measuring = chunker.is_some();
        fb.extend(&chunk_buf[..n]);
        loop {
            let frame = match fb.next_server() {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                Err(e) => {
                    out.problems.push(format!("undecodable reply: {e:?}"));
                    return out;
                }
            };
            let (session, seq) = frame_ids(&frame);
            let f = match following.entry(session) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(v) => {
                    let track = shared
                        .tracks
                        .lock()
                        .expect("track map lock poisoned")
                        .remove(&session);
                    let Some(track) = track else {
                        out.problems
                            .push(format!("reply for unknown session {session}"));
                        continue;
                    };
                    v.insert(Following {
                        track,
                        cursor: 0,
                        answered: None,
                        mismatch: false,
                    })
                }
            };
            let s = &inputs.streams[f.track.stream];
            scratch.clear();
            encode_server(&with_session(&frame, 0), &mut scratch);
            if s.ref_frame(f.cursor) != Some(&scratch[..]) {
                f.mismatch = true;
            }
            f.cursor += 1;
            let is_event = (seq as usize) < s.events.len();
            if is_event && f.answered.is_none_or(|a| seq > a) {
                f.answered = Some(seq);
                let recognized = matches!(frame, ServerFrame::Recognized { .. });
                let sampled = seq.is_multiple_of(sample_every);
                if measuring && (sampled || recognized) {
                    let due = f.track.due_ns[seq as usize].load(Ordering::Acquire);
                    let lat = shared.ns_since_origin(now).saturating_sub(due) as f64;
                    if let Some(c) = chunker.as_mut() {
                        if sampled {
                            c.current().feedback_ns.push(lat);
                        }
                        if recognized {
                            c.current().recognized_ns.push(lat);
                        }
                    }
                    if trace && out.spans.len() < MAX_SPANS {
                        out.spans.push(Span {
                            name: "client",
                            start_ns: due,
                            end_ns: shared.ns_since_origin(now),
                            parent: None,
                            session,
                            seq,
                        });
                    }
                }
            }
            if let ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            } = frame
            {
                let f = following.remove(&session).expect("session is followed");
                if f.mismatch || f.cursor != s.reference.len() {
                    out.failed += 1;
                } else {
                    out.completed += 1;
                }
                if let Some(c) = chunker.as_mut() {
                    c.current().sessions += 1;
                    c.current().points += s.points;
                }
                let _ = done_tx.send(now);
            }
        }
        if let Some(c) = chunker.as_mut() {
            c.tick(now);
        }
    }
    if let Some(c) = chunker.take() {
        out.chunks = c.finish();
    }
    out
}
