//! Seeded workload inputs: the GDP training set, scripted client session
//! streams (a quarter of them fault-corrupted), and each stream's
//! reference reply frames from `run_events_inproc`.

use grandma_core::EagerRecognizer;
use grandma_events::{Button, EventKind, EventScript, InputEvent};
use grandma_geom::Gesture;
use grandma_serve::{encode_server, run_events_inproc, OutcomeKind, PipelineConfig, ServerFrame};
use grandma_synth::datasets::{self, LabeledGesture};
use grandma_synth::{FaultInjector, SynthRng};

/// GDP training examples per class (the paper trained on 10–15).
const TRAIN_PER_CLASS: usize = 10;
/// Seed of the fixed GDP training corpus.
const TRAINING_SEED: u64 = 0x7124_1a11;
/// GDP test gestures per class the session streams draw from.
const TEST_PER_CLASS: usize = 40;
/// Distinct session streams; workloads cycle through them.
pub const STREAMS: usize = 512;
/// Gesture interactions scripted into one session.
const GESTURES_PER_SESSION: usize = 2;

/// One client session's input and its expected output.
pub struct Stream {
    /// `(seq, event)`; `seq` is the event's index.
    pub events: Vec<(u32, InputEvent)>,
    /// `seq` of the session's `Close`.
    pub close_seq: u32,
    /// True class of each scripted interaction, in order.
    pub labels: Vec<usize>,
    /// Whether `FaultInjector` corrupted the stream.
    pub corrupted: bool,
    /// Mouse-move events in the stream.
    pub points: u64,
    /// Reply frames of `run_events_inproc` for session id 0.
    pub reference: Vec<ServerFrame>,
    /// `reference`, wire-encoded back to back.
    pub ref_wire: Vec<u8>,
    /// End offset in `ref_wire` of each reference frame.
    pub ref_ends: Vec<usize>,
    /// Per event: whether some reply frame echoes its `seq`.
    pub replied: Vec<bool>,
}

impl Stream {
    /// The `i`-th reference frame's wire bytes.
    pub fn ref_frame(&self, i: usize) -> Option<&[u8]> {
        let end = *self.ref_ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ref_ends[i - 1] };
        self.ref_wire.get(start..end)
    }
}

/// Everything a workload is fed, generated from the seed alone.
pub struct Inputs {
    pub training: Vec<Vec<Gesture>>,
    pub testing: Vec<LabeledGesture>,
    pub streams: Vec<Stream>,
}

impl Inputs {
    /// Generates the training set and session streams for `seed`. The
    /// reference frames need the trained recognizer and are attached by
    /// [`Inputs::attach_reference`].
    pub fn generate(seed: u64) -> Inputs {
        // The training corpus is fixed, so every seed serves the same
        // recognizer; the seed drives the session traffic.
        let train = datasets::gdp(TRAINING_SEED, TRAIN_PER_CLASS, 0);
        let test = datasets::gdp(seed ^ 0x7e57_0000, 0, TEST_PER_CLASS);
        let mut rng = SynthRng::seed_from_u64(seed ^ 0x5e55_1011);
        let streams = (0..STREAMS)
            .map(|slot| {
                let mut script = EventScript::new();
                let mut labels = Vec::with_capacity(GESTURES_PER_SESSION);
                for _ in 0..GESTURES_PER_SESSION {
                    let pick = &test.testing[(rng.next_u64() as usize) % test.testing.len()];
                    labels.push(pick.class);
                    script = script.then_gesture(&pick.gesture, Button::Left);
                }
                let clean = script.into_events();
                let corrupted = slot % 4 == 0;
                let raw = if corrupted {
                    FaultInjector::new(seed ^ (slot as u64).wrapping_mul(0x9E37_79B9))
                        .corrupt(&clean)
                } else {
                    clean
                };
                let points = raw
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::MouseMove))
                    .count() as u64;
                let events: Vec<(u32, InputEvent)> = raw
                    .into_iter()
                    .enumerate()
                    .map(|(i, e)| (i as u32, e))
                    .collect();
                Stream {
                    close_seq: events.len() as u32,
                    events,
                    labels,
                    corrupted,
                    points,
                    reference: Vec::new(),
                    ref_wire: Vec::new(),
                    ref_ends: Vec::new(),
                    replied: Vec::new(),
                }
            })
            .collect();
        Inputs {
            training: train.training,
            testing: test.testing,
            streams,
        }
    }

    /// Runs every stream through `run_events_inproc` (session id 0) and
    /// records the frames every transport must reproduce byte for byte.
    pub fn attach_reference(&mut self, rec: &EagerRecognizer, config: &PipelineConfig) {
        for s in &mut self.streams {
            s.reference = run_events_inproc(rec, 0, config, &s.events, s.close_seq);
            s.ref_wire.clear();
            s.ref_ends.clear();
            s.replied = vec![false; s.events.len()];
            for f in &s.reference {
                encode_server(f, &mut s.ref_wire);
                s.ref_ends.push(s.ref_wire.len());
                if let Some(r) = s.replied.get_mut(frame_seq(f) as usize) {
                    *r = true;
                }
            }
        }
    }

    /// Recognition quality of the reference output against the dataset
    /// labels, over the uncorrupted streams: (accuracy, mean share of an
    /// interaction's points seen when its class was committed).
    pub fn quality(&self) -> (f64, f64) {
        let (mut right, mut total, mut eager_sum, mut eager_n) = (0u64, 0u64, 0.0, 0u64);
        for s in self.streams.iter().filter(|s| !s.corrupted) {
            let mut interaction = 0;
            let mut committed_at: Option<u32> = None;
            for f in &s.reference {
                match *f {
                    ServerFrame::Recognized { points, .. } => committed_at = Some(points),
                    ServerFrame::Outcome {
                        outcome,
                        class,
                        total_points,
                        ..
                    } if outcome != OutcomeKind::Closed => {
                        let label = s.labels.get(interaction).copied();
                        total += 1;
                        if class.map(usize::from) == label {
                            right += 1;
                        }
                        if let Some(at) = committed_at.take() {
                            if total_points > 0 {
                                eager_sum += f64::from(at) / f64::from(total_points);
                                eager_n += 1;
                            }
                        }
                        interaction += 1;
                    }
                    _ => {}
                }
            }
        }
        let accuracy = right as f64 / total.max(1) as f64;
        let eager = eager_sum / eager_n.max(1) as f64;
        (accuracy, eager)
    }
}

/// The `(session, seq)` a server frame echoes.
pub fn frame_ids(frame: &ServerFrame) -> (u64, u32) {
    match *frame {
        ServerFrame::Recognized { session, seq, .. }
        | ServerFrame::Manipulate { session, seq, .. }
        | ServerFrame::Outcome { session, seq, .. }
        | ServerFrame::Fault { session, seq, .. } => (session, seq),
        ServerFrame::Resumed { session, last_seq }
        | ServerFrame::HandoffAck { session, last_seq } => (session, last_seq),
        ServerFrame::NotOwner { session, .. } => (session, u32::MAX),
    }
}

fn frame_seq(frame: &ServerFrame) -> u32 {
    frame_ids(frame).1
}

/// `frame` with its session id replaced by `session`.
pub fn with_session(frame: &ServerFrame, session: u64) -> ServerFrame {
    let mut f = *frame;
    match &mut f {
        ServerFrame::Recognized { session: s, .. }
        | ServerFrame::Manipulate { session: s, .. }
        | ServerFrame::Outcome { session: s, .. }
        | ServerFrame::Fault { session: s, .. }
        | ServerFrame::Resumed { session: s, .. }
        | ServerFrame::HandoffAck { session: s, .. }
        | ServerFrame::NotOwner { session: s, .. } => *s = session,
    }
    f
}
