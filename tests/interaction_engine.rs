//! Differential replay: the toolkit's `GestureHandler` and the serving
//! layer's `SessionPipeline` fed the same streams must agree on every
//! interaction.
//!
//! Two corpora, 110 sessions of 5 gestures each:
//!
//! * **Corrupted** — the `tests/chaos.rs` seeds (`0xC4A0_5000 + case`),
//!   corrupted by `FaultInjector::new(seed)`. The pipeline gets the raw
//!   events. The handler gets the same events through an
//!   `EventSanitizer`, with every sanitizer fault (including those of
//!   `finish()`) reported through `note_faults` before the cleaned events
//!   are dispatched — the order the pipeline applies internally.
//! * **Clean dwell-expanded** — the same gesture picks scripted with
//!   `gesture_events_with_hold` (some held still mid-stroke, some not)
//!   and expanded by a `DwellDetector`, so the 200 ms timeout transition
//!   fires. Both sides get the expanded stream.
//!
//! Per interaction the two sides must report the same outcome, class,
//! total point count and fault count; the handler's recognition point
//! must equal the pipeline's `Recognized.points`, and its `manip`
//! evaluation count the number of `Manipulate` frames. The replay must
//! exercise the eager, timeout and mouse-up transitions and the
//! cancellation path.
//!
//! Finally, an FNV-1a digest of the encoded pipeline frames plus the
//! handler's trace rows (sanitized and raw paths) is pinned: both sides
//! run on one interaction engine, so only the digest can tell that the
//! engine's behaviour changed.

use std::cell::RefCell;
use std::rc::Rc;

use grandma::core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma::events::{
    gesture_events_with_hold, Button, DwellDetector, EventSanitizer, EventScript, InputEvent,
    SanitizerConfig,
};
use grandma::geom::Gesture;
use grandma::serve::{encode_server, run_events_inproc, OutcomeKind, PipelineConfig, ServerFrame};
use grandma::synth::{datasets, FaultInjector, SynthRng};
use grandma::toolkit::{
    GestureClass, GestureHandler, GestureHandlerConfig, HandlerRef, InteractionOutcome,
    InteractionTrace, Interface, PhaseTransition,
};

const SESSIONS: u64 = 110;
const GESTURES_PER_SESSION: usize = 5;

/// Digest of the whole replay, captured before the handler and the
/// pipeline were merged onto one engine.
const PINNED_DIGEST: u64 = 0x68a5_d99f_6e38_3558;

fn recognizer() -> Rc<EagerRecognizer> {
    let data = datasets::eight_way(0x2b2b, 10, 0);
    let (rec, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    Rc::new(rec)
}

fn handler(rec: &Rc<EagerRecognizer>) -> (Interface, Rc<RefCell<GestureHandler>>) {
    let names = ["dr", "dl", "rd", "ld", "ru", "lu", "ur", "ul"];
    let gh = Rc::new(RefCell::new(GestureHandler::new(
        rec.clone(),
        names.iter().map(|n| GestureClass::named(n)).collect(),
        GestureHandlerConfig::default(),
    )));
    let mut interface = Interface::new();
    let root: HandlerRef = gh.clone();
    interface.attach_root_handler(root);
    (interface, gh)
}

/// The chaos corpus' clean session for `seed`.
fn clean_session(seed: u64) -> Vec<InputEvent> {
    let data = datasets::eight_way(0x7e57, 0, 8);
    let mut rng = SynthRng::seed_from_u64(seed);
    let mut script = EventScript::new();
    for _ in 0..GESTURES_PER_SESSION {
        let pick = (rng.next_u64() as usize) % data.testing.len();
        script = script.then_gesture(&data.testing[pick].gesture, Button::Left);
    }
    script.into_events()
}

/// The same picks, scripted four ways: whole, held still for 300 ms at
/// an early point (twice as often), or cut to a 1–3 point prefix that
/// ends before eager recognition can fire. Expanded with synthesized
/// timeouts.
fn dwell_session(seed: u64) -> Vec<InputEvent> {
    let data = datasets::eight_way(0x7e57, 0, 8);
    let mut rng = SynthRng::seed_from_u64(seed);
    let mut script = EventScript::new();
    for _ in 0..GESTURES_PER_SESSION {
        let r = rng.next_u64() as usize;
        let gesture = &data.testing[r % data.testing.len()].gesture;
        let events = match (r / 8) % 4 {
            0 => gesture_events_with_hold(gesture, Button::Left, None),
            3 => {
                let prefix = gesture.points()[..1 + (r / 32) % 3].to_vec();
                gesture_events_with_hold(&Gesture::from_points(prefix), Button::Left, None)
            }
            _ => {
                let at = (r / 32) % gesture.len().min(6);
                gesture_events_with_hold(gesture, Button::Left, Some((at, 300.0)))
            }
        };
        script = script.then_events(events);
    }
    DwellDetector::paper_default().expand(&script.into_events())
}

/// The handler fed through a sanitizer, faults reported before the
/// cleaned events they came with.
fn handler_sanitized(rec: &Rc<EagerRecognizer>, events: &[InputEvent]) -> Vec<InteractionTrace> {
    let (mut interface, gh) = handler(rec);
    let mut sanitizer = EventSanitizer::with_config(SanitizerConfig::default());
    for &raw in events {
        let cleaned = sanitizer.process(raw);
        gh.borrow_mut().note_faults(&sanitizer.take_faults());
        for e in &cleaned {
            interface.dispatch(e);
        }
    }
    let closing = sanitizer.finish();
    gh.borrow_mut().note_faults(&sanitizer.take_faults());
    for e in &closing {
        interface.dispatch(e);
    }
    let gh = gh.borrow();
    assert!(!gh.interaction_in_progress(), "handler ends idle");
    gh.traces().to_vec()
}

/// The handler fed the raw events, its own guards alone.
fn handler_raw(rec: &Rc<EagerRecognizer>, events: &[InputEvent]) -> Vec<InteractionTrace> {
    let (mut interface, gh) = handler(rec);
    interface.run(events);
    let traces = gh.borrow().traces().to_vec();
    traces
}

fn pipeline(rec: &EagerRecognizer, session: u64, events: &[InputEvent]) -> Vec<ServerFrame> {
    let seqd: Vec<(u32, InputEvent)> = events
        .iter()
        .enumerate()
        .map(|(i, &e)| (i as u32 + 1, e))
        .collect();
    let close_seq = seqd.len() as u32 + 1;
    run_events_inproc(rec, session, &PipelineConfig::default(), &seqd, close_seq)
}

/// What both sides can report about one interaction.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    outcome: InteractionOutcome,
    class: Option<usize>,
    total_points: usize,
    faults: usize,
    /// Points collected at a mid-gesture commit (none for mouse-up
    /// commits, rejections and cancellations while collecting).
    recognized_at: Option<usize>,
    manips: usize,
}

fn handler_row(t: &InteractionTrace) -> Row {
    let mid_gesture = matches!(
        t.transition,
        PhaseTransition::Eager | PhaseTransition::Timeout
    );
    Row {
        outcome: t.outcome,
        class: t.class,
        total_points: t.total_points,
        faults: t.faults.len(),
        recognized_at: (t.class.is_some() && mid_gesture).then_some(t.points_at_recognition),
        manips: t.manip_evaluations,
    }
}

fn pipeline_rows(frames: &[ServerFrame]) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut recognized_at = None;
    let mut manips = 0;
    for frame in frames {
        match *frame {
            ServerFrame::Recognized { points, .. } => recognized_at = Some(points as usize),
            ServerFrame::Manipulate { .. } => manips += 1,
            ServerFrame::Outcome {
                outcome,
                class,
                total_points,
                faults,
                ..
            } => {
                let outcome = match outcome {
                    OutcomeKind::Recognized => InteractionOutcome::Recognized,
                    OutcomeKind::Manipulated => InteractionOutcome::Manipulated,
                    OutcomeKind::Cancelled => InteractionOutcome::Cancelled,
                    OutcomeKind::Rejected => InteractionOutcome::Rejected,
                    OutcomeKind::Closed => continue,
                };
                rows.push(Row {
                    outcome,
                    class: class.map(usize::from),
                    total_points: total_points as usize,
                    faults: faults as usize,
                    recognized_at: recognized_at.take(),
                    manips: std::mem::take(&mut manips),
                });
            }
            _ => {}
        }
    }
    rows
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_trace(&mut self, t: &InteractionTrace) {
        let row = format!(
            "{:?}|{:?}|{}|{:?}|{}|{}|{}|{}|{:?}\n",
            t.outcome,
            t.class,
            t.class_name,
            t.transition,
            t.points_at_recognition,
            t.total_points,
            t.manip_evaluations,
            t.errors.len(),
            t.faults,
        );
        self.write(row.as_bytes());
    }
}

/// Both corpora, every session: (corpus label, seed, events).
fn corpus() -> Vec<(&'static str, u64, Vec<InputEvent>)> {
    let mut out = Vec::new();
    for case in 0..SESSIONS {
        let seed = 0xC4A0_5000 + case;
        out.push((
            "corrupted",
            seed,
            FaultInjector::new(seed).corrupt(&clean_session(seed)),
        ));
        out.push(("dwell", seed, dwell_session(seed)));
    }
    out
}

#[test]
fn handler_and_pipeline_agree_on_every_interaction() {
    let rec = recognizer();
    let mut interactions = 0;
    let (mut eager, mut timeout, mut mouse_up, mut cancelled) = (0, 0, 0, 0);
    for (session, (label, seed, events)) in corpus().into_iter().enumerate() {
        let traces = handler_sanitized(&rec, &events);
        let frames = pipeline(&rec, session as u64, &events);
        let ours: Vec<Row> = traces.iter().map(handler_row).collect();
        let theirs = pipeline_rows(&frames);
        assert_eq!(
            ours.len(),
            theirs.len(),
            "{label} seed {seed:#x}: interaction counts differ"
        );
        for (i, (a, b)) in ours.iter().zip(&theirs).enumerate() {
            assert_eq!(a, b, "{label} seed {seed:#x} interaction {i}");
        }
        for t in &traces {
            match t.transition {
                PhaseTransition::Eager => eager += 1,
                PhaseTransition::Timeout => timeout += 1,
                PhaseTransition::MouseUp => mouse_up += 1,
                PhaseTransition::Aborted => {}
            }
            cancelled += usize::from(t.outcome == InteractionOutcome::Cancelled);
        }
        interactions += traces.len();
    }
    assert!(interactions >= 1000, "only {interactions} interactions");
    assert!(eager > 0, "no eager transition");
    assert!(timeout > 0, "no timeout transition");
    assert!(mouse_up > 0, "no mouse-up transition");
    assert!(cancelled > 0, "no cancelled interaction");
}

#[test]
fn replay_digest_is_pinned() {
    let rec = recognizer();
    let mut digest = Fnv::new();
    let mut bytes = Vec::new();
    for (session, (_, _, events)) in corpus().into_iter().enumerate() {
        bytes.clear();
        for frame in &pipeline(&rec, session as u64, &events) {
            encode_server(frame, &mut bytes);
        }
        digest.write(&bytes);
        for t in handler_sanitized(&rec, &events) {
            digest.write_trace(&t);
        }
        for t in handler_raw(&rec, &events) {
            digest.write_trace(&t);
        }
    }
    assert_eq!(
        digest.0, PINNED_DIGEST,
        "replay digest changed: {:#018x}",
        digest.0
    );
}
