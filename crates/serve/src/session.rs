//! The per-session recognition pipeline: sanitize → interaction engine →
//! wire frames.
//!
//! [`SessionPipeline`] is the serving-layer adapter over
//! [`grandma_core::interaction`], the same engine the toolkit's
//! `GestureHandler` drives. Where the handler evaluates
//! `recog`/`manip`/`done` expressions on the engine's steps, the pipeline
//! emits [`ServerFrame::Recognized`] / [`ServerFrame::Manipulate`] /
//! [`ServerFrame::Outcome`] for the consuming application to act on at
//! the far end of the transport. It adds the stream sanitizer in front,
//! the resume cursor, the per-session outcome counters, and the
//! [`SessionSnapshot`] codec.
//!
//! The pipeline is pure with respect to its inputs: the same
//! `(recognizer, config, event sequence)` always produces the same frame
//! sequence, which is what lets the loopback integration test demand
//! byte-identical outcomes between the TCP service and
//! [`run_events_inproc`]. It holds no clock and no thread, and after the
//! first gesture has warmed its buffers, feeding an event performs no
//! heap allocation.

use grandma_core::interaction::{
    DrainOutcome, InteractionConfig, InteractionEngine, InteractionOutcome, InteractionSnapshot,
    Phase, PhaseTransition, Step, StepSink,
};
use grandma_core::EagerRecognizer;
use grandma_events::{EventKind, EventSanitizer, InputEvent, SanitizerConfig, SanitizerState};
use grandma_geom::Point;

use crate::wire::{
    fault_code_of, put_f64, put_u16, put_u32, put_u64, Cur, OutcomeKind, ServerFrame, WireError,
    NO_CLASS,
};

/// Per-session pipeline tuning. The interaction settings are the
/// engine's own, so a served session behaves like a local one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelineConfig {
    /// Eager recognition, jitter filter, rejection threshold and fault
    /// budget; sanitizer repairs count toward the budget.
    pub interaction: InteractionConfig,
    /// Sanitizer tuning for this session's stream.
    pub sanitizer: SanitizerConfig,
}

/// Number of [`OutcomeKind`] variants, for the per-session outcome
/// counters carried by [`SessionSnapshot`].
pub const OUTCOME_KIND_COUNT: usize = 5;

fn outcome_index(kind: OutcomeKind) -> usize {
    match kind {
        OutcomeKind::Recognized => 0,
        OutcomeKind::Manipulated => 1,
        OutcomeKind::Cancelled => 2,
        OutcomeKind::Rejected => 3,
        OutcomeKind::Closed => 4,
    }
}

impl From<InteractionOutcome> for OutcomeKind {
    fn from(outcome: InteractionOutcome) -> Self {
        match outcome {
            InteractionOutcome::Recognized => OutcomeKind::Recognized,
            InteractionOutcome::Manipulated => OutcomeKind::Manipulated,
            InteractionOutcome::Rejected => OutcomeKind::Rejected,
            InteractionOutcome::Cancelled => OutcomeKind::Cancelled,
        }
    }
}

/// One session's full recognition pipeline. Owned by exactly one shard
/// worker; never shared across threads.
pub struct SessionPipeline {
    session: u64,
    config: PipelineConfig,
    sanitizer: EventSanitizer,
    engine: InteractionEngine,
    /// Sanitizer output scratch, reused across `feed` calls.
    cleaned: Vec<InputEvent>,
    /// Highest event `seq` fed through the pipeline; the authoritative
    /// resume point a `Resumed` reply carries (0 before any event —
    /// resuming clients number events from 1).
    last_seq: u32,
    /// Interaction outcomes emitted over the session's lifetime, indexed
    /// like [`crate::metrics::ServiceMetrics::outcomes`].
    outcome_counts: [u32; OUTCOME_KIND_COUNT],
}

impl SessionPipeline {
    /// Creates the pipeline for `session`.
    pub fn new(session: u64, config: PipelineConfig) -> Self {
        Self {
            session,
            sanitizer: EventSanitizer::with_config(config.sanitizer.clone()),
            engine: InteractionEngine::new(config.interaction.clone()),
            config,
            cleaned: Vec::new(),
            last_seq: 0,
            outcome_counts: [0; OUTCOME_KIND_COUNT],
        }
    }

    /// The session id frames are stamped with.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Highest event `seq` fed so far (0 before any event).
    pub fn last_seq(&self) -> u32 {
        self.last_seq
    }

    /// Outcomes emitted so far, indexed Recognized, Manipulated,
    /// Cancelled, Rejected, Closed.
    pub fn outcome_counts(&self) -> [u32; OUTCOME_KIND_COUNT] {
        self.outcome_counts
    }

    /// Re-arms a finished pipeline for a new session, keeping every
    /// warmed buffer (engine, sanitizer fault log, scratch). Observationally
    /// identical to `SessionPipeline::new(session, config)` with the same
    /// config — shard workers recycle closed pipelines through this
    /// instead of reallocating.
    pub fn recycle(&mut self, session: u64) {
        self.session = session;
        self.sanitizer.reset();
        self.engine.reset();
        self.cleaned.clear();
        self.last_seq = 0;
        self.outcome_counts = [0; OUTCOME_KIND_COUNT];
    }

    /// `true` while an interaction is in progress (any non-idle phase).
    pub fn interaction_in_progress(&self) -> bool {
        self.engine.in_progress()
    }

    /// Feeds one raw (possibly corrupted) event through sanitization and
    /// the engine, appending every provoked frame to `out`. Returns the
    /// number of sanitizer repairs this event cost.
    pub fn feed(
        &mut self,
        rec: &EagerRecognizer,
        seq: u32,
        raw: InputEvent,
        out: &mut Vec<ServerFrame>,
    ) -> u32 {
        self.last_seq = self.last_seq.max(seq);
        // The scratch buffer is moved out for the duration of the call so
        // dispatch can borrow `self` mutably; moving a Vec never allocates.
        let mut cleaned = std::mem::take(&mut self.cleaned);
        cleaned.clear();
        self.sanitizer.process_into(raw, &mut cleaned);
        let repairs = self.note_sanitizer_faults(seq, out);
        for &event in &cleaned {
            self.dispatch(rec, seq, event, out);
        }
        self.cleaned = cleaned;
        repairs
    }

    /// Ends the session: flushes the sanitizer (closing any dangling
    /// interaction), finalizes the engine, and emits the terminal
    /// [`OutcomeKind::Closed`] marker. Exactly one `Closed` outcome is
    /// emitted per pipeline lifetime.
    pub fn close(&mut self, rec: &EagerRecognizer, seq: u32, out: &mut Vec<ServerFrame>) {
        let mut closing = std::mem::take(&mut self.cleaned);
        closing.clear();
        self.sanitizer.finish_into(&mut closing);
        self.note_sanitizer_faults(seq, out);
        for &event in &closing {
            self.dispatch(rec, seq, event, out);
        }
        self.cleaned = closing;
        // Defense in depth: the sanitizer's finish() guarantees an ending
        // event for any open interaction, but a pipeline must terminate
        // even if that contract is ever violated.
        if self.interaction_in_progress() {
            let grab_break = InputEvent::new(EventKind::GrabBreak, 0.0, 0.0, 0.0);
            self.dispatch(rec, seq, grab_break, out);
        }
        Frames {
            session: self.session,
            seq,
            out,
            outcome_counts: &mut self.outcome_counts,
        }
        .outcome(OutcomeKind::Closed, None, 0, 0);
    }

    // lint:hot-path start — per-event steady state: no panics, no allocation
    /// Drains the sanitizer's fault log: emits one `Fault` frame per
    /// repair and charges them to the interaction in progress (the engine
    /// drops charges while idle).
    fn note_sanitizer_faults(&mut self, seq: u32, out: &mut Vec<ServerFrame>) -> u32 {
        if self.sanitizer.faults().is_empty() {
            return 0;
        }
        for fault in self.sanitizer.faults() {
            out.push(ServerFrame::Fault {
                session: self.session,
                seq,
                code: fault_code_of(fault),
            });
        }
        let n = self.sanitizer.faults().len() as u32;
        self.sanitizer.clear_faults();
        self.engine.charge(n);
        n
    }

    /// Routes one *sanitized* event through the engine, encoding its
    /// steps as frames as they are emitted.
    fn dispatch(
        &mut self,
        rec: &EagerRecognizer,
        seq: u32,
        event: InputEvent,
        out: &mut Vec<ServerFrame>,
    ) {
        let mut frames = Frames {
            session: self.session,
            seq,
            out,
            outcome_counts: &mut self.outcome_counts,
        };
        self.engine.step(rec, event, &mut frames);
    }
    // lint:hot-path end

    /// Captures the pipeline's complete recoverable state. The sanitizer
    /// fault log is expected to be empty (it is drained into `Fault`
    /// frames on every `feed`); pending faults are *not* carried by the
    /// snapshot.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            session: self.session,
            config: self.config.clone(),
            sanitizer: self.sanitizer.state(),
            last_seq: self.last_seq,
            outcome_counts: self.outcome_counts,
            interaction: self.engine.snapshot(),
        }
    }

    /// Rebuilds a pipeline from a snapshot. A restored pipeline's future
    /// output is byte-identical to one that never stopped.
    pub fn restore(snapshot: &SessionSnapshot) -> Self {
        let mut p = Self::new(snapshot.session, snapshot.config.clone());
        p.sanitizer.restore_state(snapshot.sanitizer);
        p.engine.restore(&snapshot.interaction);
        p.last_seq = snapshot.last_seq;
        p.outcome_counts = snapshot.outcome_counts;
        p
    }
}

/// The frames of one triggering event: the engine's steps, encoded for
/// the wire as the engine emits them.
struct Frames<'a> {
    session: u64,
    seq: u32,
    out: &'a mut Vec<ServerFrame>,
    outcome_counts: &'a mut [u32; OUTCOME_KIND_COUNT],
}

// lint:hot-path start — per-event steady state: no panics, no allocation
impl Frames<'_> {
    /// Counts and emits one `Outcome` frame.
    fn outcome(
        &mut self,
        outcome: OutcomeKind,
        class: Option<u16>,
        total_points: u32,
        faults: u32,
    ) {
        if let Some(counter) = self.outcome_counts.get_mut(outcome_index(outcome)) {
            *counter = counter.saturating_add(1);
        }
        self.out.push(ServerFrame::Outcome {
            session: self.session,
            seq: self.seq,
            outcome,
            class,
            total_points,
            faults,
        });
    }
}

impl StepSink for Frames<'_> {
    // Inlined into each emitting site of the engine, the match folds to a
    // single frame push. Left as a call, it cost the perfbench recognize
    // workload about 10 ns per manipulation event (2-core x86-64 VM).
    #[inline(always)]
    fn push(&mut self, step: Step) {
        let (session, seq) = (self.session, self.seq);
        match step {
            Step::Fault(fault) => self.out.push(ServerFrame::Fault {
                session,
                seq,
                code: fault_code_of(&fault),
            }),
            // A mouse-up commit is reported by its outcome alone.
            Step::Classified {
                transition,
                class: Some(class),
                points,
            } if transition != PhaseTransition::MouseUp => {
                self.out.push(ServerFrame::Recognized {
                    session,
                    seq,
                    class,
                    points,
                });
            }
            Step::Classified { .. } => {}
            Step::Manipulate { x, y, .. } => {
                self.out
                    .push(ServerFrame::Manipulate { session, seq, x, y })
            }
            Step::Outcome {
                outcome,
                class,
                total_points,
                faults,
            } => self.outcome(outcome.into(), class, total_points, faults),
        }
    }
}
// lint:hot-path end

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written by an incompatible
    /// [`SessionSnapshot::VERSION`].
    UnsupportedVersion {
        /// The version found in the bytes.
        found: u16,
    },
    /// The snapshot bytes are truncated or malformed.
    Wire(WireError),
}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Wire(e)
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
            SnapshotError::Wire(e) => write!(f, "malformed snapshot: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A versioned, byte-stable capture of one [`SessionPipeline`]'s
/// recoverable state: config, sanitizer state, resume cursor, outcome
/// counters, and the interaction engine's phase, fault charge and
/// in-flight gesture points.
///
/// The binary layout ([`SessionSnapshot::encode`] /
/// [`SessionSnapshot::decode`]) is the on-disk format the WAL's
/// compaction snapshots use (DESIGN.md §14); [`SessionSnapshot::VERSION`]
/// is bumped on any layout change and decoding rejects other versions —
/// recovery across a layout change goes through the WAL tail instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The session id.
    pub session: u64,
    /// The pipeline config the session was opened with.
    pub config: PipelineConfig,
    /// The sanitizer's mid-stream state.
    pub sanitizer: SanitizerState,
    /// Highest event `seq` processed (the resume cursor).
    pub last_seq: u32,
    /// Outcomes emitted so far, indexed Recognized, Manipulated,
    /// Cancelled, Rejected, Closed.
    pub outcome_counts: [u32; OUTCOME_KIND_COUNT],
    /// The interaction engine's state.
    pub interaction: InteractionSnapshot,
}

// Flag bits of the snapshot header byte.
const SNAP_EAGER: u8 = 1 << 0;
const SNAP_HAS_MIN_PROB: u8 = 1 << 1;
const SNAP_HAS_LAST_T: u8 = 1 << 2;
const SNAP_HAS_LAST_POS: u8 = 1 << 3;
const SNAP_INTERACTION_OPEN: u8 = 1 << 4;

// Phase tags.
const SNAP_PHASE_IDLE: u8 = 0;
const SNAP_PHASE_COLLECTING: u8 = 1;
const SNAP_PHASE_MANIPULATING: u8 = 2;
const SNAP_PHASE_DRAINING: u8 = 3;

impl SessionSnapshot {
    /// Snapshot layout version; encoded first so mismatched readers fail
    /// fast with [`SnapshotError::UnsupportedVersion`]. Bump on ANY
    /// layout change, in lockstep with the encode/decode pair below and
    /// the DESIGN.md §14 format table (grandma-lint's
    /// `snapshot-version-lockstep` rule holds this together).
    pub const VERSION: u16 = 1;

    /// Appends the snapshot's byte-stable encoding to `out`: all
    /// integers little-endian, floats as raw IEEE-754 bits, `Option`s as
    /// header flag bits. Encoding the same snapshot twice yields
    /// identical bytes.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u16(out, Self::VERSION);
        put_u64(out, self.session);
        let mut flags = 0u8;
        let interaction = &self.config.interaction;
        if interaction.eager {
            flags |= SNAP_EAGER;
        }
        if interaction.min_probability.is_some() {
            flags |= SNAP_HAS_MIN_PROB;
        }
        if self.sanitizer.last_t.is_some() {
            flags |= SNAP_HAS_LAST_T;
        }
        if self.sanitizer.last_pos.is_some() {
            flags |= SNAP_HAS_LAST_POS;
        }
        if self.sanitizer.interaction_open {
            flags |= SNAP_INTERACTION_OPEN;
        }
        out.push(flags);
        put_f64(out, interaction.min_point_distance);
        if let Some(p) = interaction.min_probability {
            put_f64(out, p);
        }
        put_u32(out, interaction.fault_budget);
        put_f64(out, self.config.sanitizer.reorder_window_ms);
        put_f64(out, self.config.sanitizer.grab_timeout_ms);
        if let Some(t) = self.sanitizer.last_t {
            put_f64(out, t);
        }
        if let Some((x, y)) = self.sanitizer.last_pos {
            put_f64(out, x);
            put_f64(out, y);
        }
        put_u32(out, self.interaction.faults);
        put_u32(out, self.last_seq);
        for count in self.outcome_counts {
            put_u32(out, count);
        }
        match self.interaction.phase {
            Phase::Idle => out.push(SNAP_PHASE_IDLE),
            Phase::Collecting => out.push(SNAP_PHASE_COLLECTING),
            Phase::Manipulating {
                class,
                total_points,
            } => {
                out.push(SNAP_PHASE_MANIPULATING);
                put_u16(out, class);
                put_u32(out, total_points);
            }
            Phase::Draining {
                outcome,
                class,
                total_points,
            } => {
                out.push(SNAP_PHASE_DRAINING);
                out.push(outcome_index(InteractionOutcome::from(outcome).into()) as u8);
                put_u16(out, class.unwrap_or(NO_CLASS));
                put_u32(out, total_points);
            }
        }
        put_u32(out, self.interaction.points.len() as u32);
        for p in &self.interaction.points {
            put_f64(out, p.x);
            put_f64(out, p.y);
            put_f64(out, p.t);
        }
    }

    /// Decodes one snapshot from the front of `buf`, returning it and
    /// the bytes consumed. Never panics on hostile input.
    pub fn decode(buf: &[u8]) -> Result<(Self, usize), SnapshotError> {
        let mut cur = Cur::new(buf);
        let version = cur.u16("snapshot version")?;
        if version != Self::VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let session = cur.u64("session")?;
        let flags = cur.u8("snapshot flags")?;
        let min_point_distance = cur.f64("min point distance")?;
        let min_probability = if flags & SNAP_HAS_MIN_PROB != 0 {
            Some(cur.f64("min probability")?)
        } else {
            None
        };
        let fault_budget = cur.u32("fault budget")?;
        let reorder_window_ms = cur.f64("reorder window")?;
        let grab_timeout_ms = cur.f64("grab timeout")?;
        let last_t = if flags & SNAP_HAS_LAST_T != 0 {
            Some(cur.f64("sanitizer last t")?)
        } else {
            None
        };
        let last_pos = if flags & SNAP_HAS_LAST_POS != 0 {
            Some((cur.f64("sanitizer last x")?, cur.f64("sanitizer last y")?))
        } else {
            None
        };
        let faults = cur.u32("interaction faults")?;
        let last_seq = cur.u32("last seq")?;
        let mut outcome_counts = [0u32; OUTCOME_KIND_COUNT];
        for count in outcome_counts.iter_mut() {
            *count = cur.u32("outcome count")?;
        }
        let phase = match cur.u8("phase tag")? {
            SNAP_PHASE_IDLE => Phase::Idle,
            SNAP_PHASE_COLLECTING => Phase::Collecting,
            SNAP_PHASE_MANIPULATING => Phase::Manipulating {
                class: cur.u16("phase class")?,
                total_points: cur.u32("phase points")?,
            },
            SNAP_PHASE_DRAINING => {
                // Only Cancelled and Rejected are ever held while
                // draining; any other outcome index is forged.
                let outcome = match cur.u8("phase outcome")? {
                    2 => DrainOutcome::Cancelled,
                    3 => DrainOutcome::Rejected,
                    value => {
                        return Err(WireError::BadEnum {
                            what: "phase outcome",
                            value,
                        }
                        .into())
                    }
                };
                let class = match cur.u16("phase class")? {
                    NO_CLASS => None,
                    c => Some(c),
                };
                Phase::Draining {
                    outcome,
                    class,
                    total_points: cur.u32("phase points")?,
                }
            }
            value => {
                return Err(WireError::BadEnum {
                    what: "phase tag",
                    value,
                }
                .into())
            }
        };
        let count = usize::try_from(cur.u32("point count")?).map_err(|_| {
            WireError::IntOutOfRange {
                what: "point count",
            }
        })?;
        // A point is 24 bytes; refuse counts the remaining bytes cannot
        // hold before reserving anything.
        if count.saturating_mul(24) > cur.remaining() {
            return Err(WireError::Malformed {
                what: "point count",
            }
            .into());
        }
        let mut points = Vec::with_capacity(count);
        for _ in 0..count {
            let x = cur.f64("point x")?;
            let y = cur.f64("point y")?;
            let t = cur.f64("point t")?;
            points.push(Point::new(x, y, t));
        }
        let snapshot = Self {
            session,
            config: PipelineConfig {
                interaction: InteractionConfig {
                    eager: flags & SNAP_EAGER != 0,
                    min_point_distance,
                    min_probability,
                    fault_budget,
                },
                sanitizer: SanitizerConfig {
                    reorder_window_ms,
                    grab_timeout_ms,
                },
            },
            sanitizer: SanitizerState {
                last_t,
                last_pos,
                interaction_open: flags & SNAP_INTERACTION_OPEN != 0,
            },
            last_seq,
            outcome_counts,
            interaction: InteractionSnapshot {
                phase,
                faults,
                points,
            },
        };
        Ok((snapshot, cur.consumed()))
    }
}

/// Runs a whole `(seq, event)` stream through a fresh [`SessionPipeline`]
/// without any transport or thread: the deterministic in-process
/// reference the loopback integration test compares the TCP service
/// against, and the reference implementation of "the same scripts run
/// through the in-process pipeline".
pub fn run_events_inproc(
    rec: &EagerRecognizer,
    session: u64,
    config: &PipelineConfig,
    events: &[(u32, InputEvent)],
    close_seq: u32,
) -> Vec<ServerFrame> {
    let mut pipeline = SessionPipeline::new(session, config.clone());
    let mut out = Vec::new();
    for &(seq, raw) in events {
        pipeline.feed(rec, seq, raw, &mut out);
    }
    pipeline.close(rec, close_seq, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use grandma_core::{EagerConfig, FeatureMask};
    use grandma_events::{Button, EventScript};
    use grandma_synth::datasets;

    fn recognizer() -> EagerRecognizer {
        let data = datasets::eight_way(0x2b2b, 10, 0);
        let (rec, _) =
            EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
                .expect("training succeeds");
        rec
    }

    fn seq_events(events: Vec<InputEvent>) -> Vec<(u32, InputEvent)> {
        events
            .into_iter()
            .enumerate()
            .map(|(i, e)| (i as u32, e))
            .collect()
    }

    fn clean_stream(n: usize) -> Vec<(u32, InputEvent)> {
        let data = datasets::eight_way(0x7e57, 0, 4);
        let mut script = EventScript::new();
        for i in 0..n {
            script = script.then_gesture(&data.testing[i % data.testing.len()].gesture, Button::Left);
        }
        seq_events(script.into_events())
    }

    #[test]
    fn clean_interactions_recognize_and_close() {
        let rec = recognizer();
        let events = clean_stream(3);
        let close_seq = events.len() as u32;
        let frames = run_events_inproc(&rec, 11, &PipelineConfig::default(), &events, close_seq);
        let outcomes: Vec<OutcomeKind> = frames
            .iter()
            .filter_map(|f| match f {
                ServerFrame::Outcome { outcome, .. } => Some(*outcome),
                _ => None,
            })
            .collect();
        assert_eq!(outcomes.len(), 4, "3 interactions + 1 Closed: {outcomes:?}");
        assert!(outcomes[..3]
            .iter()
            .all(|o| matches!(o, OutcomeKind::Recognized | OutcomeKind::Manipulated)));
        assert_eq!(outcomes[3], OutcomeKind::Closed);
        // Eager recognition fired: Recognized frames precede Manipulate
        // streams.
        assert!(frames
            .iter()
            .any(|f| matches!(f, ServerFrame::Recognized { .. })));
        assert!(frames
            .iter()
            .any(|f| matches!(f, ServerFrame::Manipulate { .. })));
    }

    #[test]
    fn pipeline_is_deterministic() {
        let rec = recognizer();
        let events = clean_stream(2);
        let a = run_events_inproc(&rec, 1, &PipelineConfig::default(), &events, 999);
        let b = run_events_inproc(&rec, 1, &PipelineConfig::default(), &events, 999);
        assert_eq!(a, b);
    }

    #[test]
    fn corrupted_stream_reports_faults_and_terminates() {
        use grandma_synth::FaultInjector;
        let rec = recognizer();
        let clean: Vec<InputEvent> = clean_stream(4).into_iter().map(|(_, e)| e).collect();
        let corrupted = seq_events(FaultInjector::new(0xBAD).corrupt(&clean));
        let close_seq = corrupted.len() as u32;
        let frames =
            run_events_inproc(&rec, 2, &PipelineConfig::default(), &corrupted, close_seq);
        // Terminal marker present, pipeline survived.
        assert!(matches!(
            frames.last(),
            Some(ServerFrame::Outcome {
                outcome: OutcomeKind::Closed,
                ..
            })
        ));
        let rerun =
            run_events_inproc(&rec, 2, &PipelineConfig::default(), &corrupted, close_seq);
        assert_eq!(frames, rerun, "corruption replays deterministically");
    }

    #[test]
    fn dangling_interaction_is_cancelled_at_close() {
        let rec = recognizer();
        let mut events = clean_stream(1);
        events.pop(); // lose the MouseUp
        let frames = run_events_inproc(&rec, 3, &PipelineConfig::default(), &events, 100);
        let outcomes: Vec<OutcomeKind> = frames
            .iter()
            .filter_map(|f| match f {
                ServerFrame::Outcome { outcome, .. } => Some(*outcome),
                _ => None,
            })
            .collect();
        // The sanitizer's finish() synthesizes the grab break: the
        // interaction cancels, then the session closes.
        assert_eq!(outcomes.last(), Some(&OutcomeKind::Closed));
        assert!(outcomes.contains(&OutcomeKind::Cancelled));
    }

    #[test]
    fn snapshot_restore_matches_never_crashed_at_every_cut() {
        let rec = recognizer();
        let events = clean_stream(2);
        let close_seq = events.len() as u32;
        let reference =
            run_events_inproc(&rec, 21, &PipelineConfig::default(), &events, close_seq);
        // Cut the stream at every boundary — idle, mid-collection,
        // mid-manipulation — snapshot, restore, and finish on the
        // restored pipeline. The combined output must be byte-identical
        // to the uninterrupted run.
        for cut in 0..=events.len() {
            let mut first = SessionPipeline::new(21, PipelineConfig::default());
            let mut out = Vec::new();
            for &(seq, raw) in &events[..cut] {
                first.feed(&rec, seq, raw, &mut out);
            }
            let snap = first.snapshot();
            // Byte-stable: encode twice, decode, re-encode — all equal.
            let mut bytes = Vec::new();
            snap.encode(&mut bytes);
            let mut again = Vec::new();
            snap.encode(&mut again);
            assert_eq!(bytes, again, "cut {cut}: encode is deterministic");
            let (decoded, consumed) = SessionSnapshot::decode(&bytes).expect("decodes");
            assert_eq!(consumed, bytes.len(), "cut {cut}: whole buffer consumed");
            assert_eq!(decoded, snap, "cut {cut}: decode inverts encode");
            let mut restored = SessionPipeline::restore(&decoded);
            assert_eq!(restored.last_seq(), first.last_seq());
            for &(seq, raw) in &events[cut..] {
                restored.feed(&rec, seq, raw, &mut out);
            }
            restored.close(&rec, close_seq, &mut out);
            let mut encoded = Vec::new();
            let mut ref_encoded = Vec::new();
            for f in &out {
                crate::wire::encode_server(f, &mut encoded);
            }
            for f in &reference {
                crate::wire::encode_server(f, &mut ref_encoded);
            }
            assert_eq!(
                encoded, ref_encoded,
                "cut {cut}: restored output must be byte-identical"
            );
        }
    }

    #[test]
    fn snapshot_restore_preserves_outcome_counts_and_faulted_state() {
        let rec = recognizer();
        let config = PipelineConfig {
            interaction: InteractionConfig {
                min_probability: Some(0.25),
                ..InteractionConfig::default()
            },
            ..PipelineConfig::default()
        };
        let clean: Vec<InputEvent> = clean_stream(3).into_iter().map(|(_, e)| e).collect();
        let corrupted = seq_events(grandma_synth::FaultInjector::new(0x5EED).corrupt(&clean));
        let close_seq = corrupted.len() as u32;
        let reference = run_events_inproc(&rec, 8, &config, &corrupted, close_seq);
        let cut = corrupted.len() / 2;
        let mut first = SessionPipeline::new(8, config.clone());
        let mut out = Vec::new();
        for &(seq, raw) in &corrupted[..cut] {
            first.feed(&rec, seq, raw, &mut out);
        }
        let snap = first.snapshot();
        let counts = first.outcome_counts();
        let mut restored = SessionPipeline::restore(&snap);
        assert_eq!(restored.outcome_counts(), counts);
        for &(seq, raw) in &corrupted[cut..] {
            restored.feed(&rec, seq, raw, &mut out);
        }
        restored.close(&rec, close_seq, &mut out);
        assert_eq!(out, reference, "faulted stream restores identically");
    }

    #[test]
    fn snapshot_decode_rejects_bad_bytes_without_panicking() {
        let pipeline = SessionPipeline::new(5, PipelineConfig::default());
        let mut bytes = Vec::new();
        pipeline.snapshot().encode(&mut bytes);
        // Wrong version.
        let mut wrong = bytes.clone();
        wrong[0] = 0xFF;
        wrong[1] = 0xFF;
        assert_eq!(
            SessionSnapshot::decode(&wrong),
            Err(SnapshotError::UnsupportedVersion { found: 0xFFFF })
        );
        // Every truncation is a typed error, not a panic.
        for cut in 0..bytes.len() {
            assert!(SessionSnapshot::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // A forged point count must not allocate or loop.
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(SessionSnapshot::decode(&bytes).is_err());
        // A draining phase only ever holds Cancelled (2) or Rejected (3).
        // Any other outcome is forged: a held Closed would let `close`
        // emit a second Closed.
        let mut draining = SessionPipeline::new(5, PipelineConfig::default()).snapshot();
        draining.interaction.phase = Phase::Draining {
            outcome: DrainOutcome::Rejected,
            class: None,
            total_points: 0,
        };
        let mut bytes = Vec::new();
        draining.encode(&mut bytes);
        // Outcome byte: tag, then outcome, class (u16), points (u32) and
        // the point count (u32) close the encoding.
        let outcome_at = bytes.len() - 4 - 4 - 2 - 1;
        assert_eq!(bytes[outcome_at - 1], SNAP_PHASE_DRAINING);
        assert_eq!(bytes[outcome_at], 3);
        assert!(SessionSnapshot::decode(&bytes).is_ok());
        for forged in [0u8, 1, 4, 5, 0xFF] {
            bytes[outcome_at] = forged;
            assert_eq!(
                SessionSnapshot::decode(&bytes),
                Err(SnapshotError::Wire(WireError::BadEnum {
                    what: "phase outcome",
                    value: forged,
                })),
                "outcome index {forged}"
            );
        }
    }

    #[test]
    fn fault_budget_cancels_interaction() {
        let rec = recognizer();
        let config = PipelineConfig {
            interaction: InteractionConfig {
                fault_budget: 1,
                ..InteractionConfig::default()
            },
            ..PipelineConfig::default()
        };
        let mut pipeline = SessionPipeline::new(4, config);
        let mut out = Vec::new();
        let events = clean_stream(1);
        // Open the interaction, then hammer it with NaN moves.
        pipeline.feed(&rec, 0, events[0].1, &mut out);
        for i in 0..4 {
            pipeline.feed(
                &rec,
                i + 1,
                InputEvent::new(EventKind::MouseMove, f64::NAN, 0.0, 5.0 + i as f64),
                &mut out,
            );
        }
        pipeline.close(&rec, 99, &mut out);
        let cancelled = out.iter().any(|f| {
            matches!(
                f,
                ServerFrame::Outcome {
                    outcome: OutcomeKind::Cancelled,
                    ..
                }
            )
        });
        assert!(cancelled, "budget exhaustion must cancel: {out:?}");
    }

    #[test]
    fn rejection_threshold_flips_exactly_at_the_commit_probability() {
        let rec = recognizer();
        let classifier = rec.full_classifier();
        let mut evaluations = vec![0.0; classifier.num_classes()];
        let data = datasets::eight_way(0x7e57, 0, 4);
        let mut checked = 0;
        for (session, labeled) in data.testing.iter().enumerate() {
            let events = grandma_events::gesture_events(&labeled.gesture, Button::Left);
            // The engine alone finds the committed gesture; P̂ is the
            // checked classification of a fresh extraction of it.
            let mut engine = InteractionEngine::new(InteractionConfig::default());
            let mut steps = Vec::new();
            let mut probability = None;
            for &event in &events {
                steps.clear();
                engine.step(&rec, event, &mut steps);
                if steps.iter().any(|s| matches!(s, Step::Classified { .. })) {
                    let features = grandma_core::FeatureExtractor::extract(
                        engine.gesture(),
                        classifier.mask(),
                    );
                    probability = classifier
                        .classify_slice_checked(features.as_slice(), &mut evaluations)
                        .map(|(_, p)| p);
                }
            }
            let Some(p) = probability else {
                continue;
            };
            assert!(p.is_finite() && p > 0.0, "P̂ = {p}");
            let stream = seq_events(events);
            let run = |min_probability| {
                let config = PipelineConfig {
                    interaction: InteractionConfig {
                        min_probability,
                        ..InteractionConfig::default()
                    },
                    ..PipelineConfig::default()
                };
                run_events_inproc(&rec, session as u64, &config, &stream, stream.len() as u32)
            };
            let unthresholded = run(None);
            let rejects = |frames: &[ServerFrame]| {
                frames.iter().any(|f| {
                    matches!(
                        f,
                        ServerFrame::Outcome {
                            outcome: OutcomeKind::Rejected,
                            class: None,
                            ..
                        }
                    )
                })
            };
            assert!(!rejects(&unthresholded));
            let below = f64::from_bits(p.to_bits() - 1);
            let above = f64::from_bits(p.to_bits() + 1);
            assert_eq!(run(Some(below)), unthresholded, "P̂ = {p}");
            assert_eq!(run(Some(p)), unthresholded, "P̂ = {p}");
            let rejected = run(Some(above));
            assert!(rejects(&rejected), "P̂ = {p}: {rejected:?}");
            assert!(!rejected
                .iter()
                .any(|f| matches!(f, ServerFrame::Recognized { .. })));
            checked += 1;
        }
        assert!(checked >= 16, "{checked} thresholded sessions");
    }
}
