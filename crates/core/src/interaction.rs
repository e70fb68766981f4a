//! The two-phase interaction engine: the one state machine behind both the
//! toolkit's gesture handler and the serving layer's session pipeline.
//!
//! §3.2: the gesture handler "is responsible for collecting and inking the
//! gesture, determining when the phase transition occurs, classifying the
//! gesture, and executing the gesture's semantics." [`InteractionEngine`]
//! does the first three. It never runs semantics and never encodes a
//! frame: it turns each event into [`Step`]s handed to a caller's
//! [`StepSink`], and an adapter acts on them. The toolkit's
//! `GestureHandler` collects them in a `Vec<Step>` and evaluates
//! `recog`/`manip`/`done` from them; the server's `SessionPipeline`
//! encodes each one as a wire frame the moment it is emitted.
//!
//! The phase transition happens at the first of (§1):
//!
//! 1. the mouse button is released (the manipulation phase is omitted),
//! 2. a 200 ms motionless timeout (delivered as a synthesized
//!    [`EventKind::Timeout`], see `grandma_events::DwellDetector`), or
//! 3. *eager recognition*: the collected prefix becomes unambiguous.
//!
//! ```text
//! Idle ──down──▶ Collecting ──eager/timeout──▶ Manipulating ──up──▶ Idle
//!   ▲                │  │                          │    │
//!   │                │  └──up (classify at up)─────────────────────▶ Idle
//!   │                └────reject / budget──▶ Draining ──end────────┘
//!   └────grab-break (from anywhere, immediate outcome)──────────────┘
//! ```
//!
//! `Draining` is the decided-but-still-grabbed state: the outcome is
//! [`DrainOutcome::Cancelled`] (fault budget exhausted) or
//! [`DrainOutcome::Rejected`] (classification declined mid-gesture). It
//! swallows events until one [ends the interaction](InputEvent::ends_interaction),
//! then emits the held outcome. A grab break ends any interaction at once.
//! Every path ends in `Idle`, with exactly one [`Step::Outcome`] per
//! interaction.
//!
//! Each phase transition costs one classification of features the engine
//! already has. An eager commit classifies the very feature slice the AUC
//! judged unambiguous on that mouse point; a timeout or mouse-up commit
//! reads the warm extractor once. The commit takes the checked argmax and
//! computes the probability estimate P̂ only when
//! [`InteractionConfig::min_probability`] is set to read it.
//!
//! The collection buffers (gesture, feature extractor, jitter filter,
//! classifier scratch) live on the engine and are cleared, not dropped,
//! between interactions. Once the first gesture has warmed them up,
//! [`InteractionEngine::step`] performs no heap allocation.

use grandma_events::{EventKind, InputEvent, StreamFault};
use grandma_geom::{Gesture, Point};

use crate::{
    Classifier, EagerRecognizer, FeatureExtractor, FeatureMask, PointFilter, FEATURE_COUNT,
};

/// Settings of the interaction engine, shared by every adapter.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionConfig {
    /// Whether eager recognition (transition 3) is enabled. Figure 3's
    /// walkthrough has it off; §5's evaluations have it on.
    pub eager: bool,
    /// Jitter filter: collected points closer than this to the previous
    /// kept point are discarded (Rubine used 3 px).
    pub min_point_distance: f64,
    /// Optional rejection: minimum estimated probability for the
    /// classification to be acted on.
    pub min_probability: Option<f64>,
    /// Maximum number of stream faults tolerated within one interaction.
    /// Exceeding it cancels the interaction: a stream corrupted beyond
    /// repair must not be classified.
    pub fault_budget: u32,
}

impl Default for InteractionConfig {
    fn default() -> Self {
        Self {
            eager: true,
            min_point_distance: 3.0,
            min_probability: None,
            fault_budget: 8,
        }
    }
}

/// How the collection→manipulation transition happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseTransition {
    /// The prefix became unambiguous (transition 3).
    Eager,
    /// The 200 ms dwell timeout fired (transition 2).
    Timeout,
    /// The button was released first (transition 1; no manipulation
    /// phase).
    MouseUp,
    /// No transition ever happened: the interaction was cancelled while
    /// still collecting (grab break or fault budget exhausted).
    Aborted,
}

/// The terminal state every interaction reaches, exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InteractionOutcome {
    /// Classified at mouse-up; the manipulation phase was omitted.
    Recognized,
    /// Classified mid-gesture (eager or timeout) and the manipulation
    /// phase ran to a clean mouse-up.
    Manipulated,
    /// Classification declined to act: estimated probability below
    /// [`InteractionConfig::min_probability`], or the collected gesture's
    /// features were non-finite/degenerate.
    Rejected,
    /// The interaction was torn down without running its remaining
    /// semantics: a grab break arrived, or the fault budget was
    /// exhausted.
    Cancelled,
}

/// The outcome a [`Phase::Draining`] interaction holds until its grab
/// ends. Only these two outcomes are decided before the interaction ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainOutcome {
    /// The fault budget was exhausted.
    Cancelled,
    /// The mid-gesture classification was declined.
    Rejected,
}

impl From<DrainOutcome> for InteractionOutcome {
    fn from(outcome: DrainOutcome) -> Self {
        match outcome {
            DrainOutcome::Cancelled => InteractionOutcome::Cancelled,
            DrainOutcome::Rejected => InteractionOutcome::Rejected,
        }
    }
}

/// The engine's phase: everything about an interaction in progress except
/// its collected points and fault charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// No interaction in progress.
    Idle,
    /// Collecting gesture points.
    Collecting,
    /// Mid-manipulation after a mid-gesture classification.
    Manipulating {
        /// The committed class.
        class: u16,
        /// Points collected at the transition, plus manipulation moves
        /// since.
        total_points: u32,
    },
    /// Outcome decided, waiting for the interaction to end.
    Draining {
        /// The held outcome.
        outcome: DrainOutcome,
        /// The class it carries, if any.
        class: Option<u16>,
        /// Points the outcome reports.
        total_points: u32,
    },
}

/// What one event did, for the adapter to act on.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// A stream fault the engine found itself (a non-finite sample or a
    /// duplicate mouse-down). It is already charged to the interaction.
    Fault(StreamFault),
    /// The phase transition fired and the collected gesture was
    /// classified. `class` is `None` when the classification was
    /// rejected. The gesture is still readable through
    /// [`InteractionEngine::gesture`] while the step is handled.
    Classified {
        /// Which trigger fired.
        transition: PhaseTransition,
        /// The accepted class.
        class: Option<u16>,
        /// Points collected when classification fired.
        points: u32,
    },
    /// One manipulation-phase mouse move.
    Manipulate {
        /// Pointer x.
        x: f64,
        /// Pointer y.
        y: f64,
        /// Event time.
        t: f64,
    },
    /// The interaction ended; the engine is idle again.
    Outcome {
        /// The terminal state.
        outcome: InteractionOutcome,
        /// The committed class, if the interaction got one.
        class: Option<u16>,
        /// Points in the whole interaction.
        total_points: u32,
        /// Faults charged to the interaction.
        faults: u32,
    },
}

/// Where the engine's steps go: a `Vec<Step>`, or an adapter that acts
/// on each step as the engine emits it.
pub trait StepSink {
    /// Takes one step.
    fn push(&mut self, step: Step);
}

impl StepSink for Vec<Step> {
    #[inline]
    fn push(&mut self, step: Step) {
        Vec::push(self, step);
    }
}

/// The engine's complete recoverable state.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionSnapshot {
    /// The phase.
    pub phase: Phase,
    /// Faults charged to the interaction in progress.
    pub faults: u32,
    /// The in-flight gesture's collected points (empty when idle).
    pub points: Vec<Point>,
}

/// The interaction state machine. See the [module docs](self).
#[derive(Debug)]
pub struct InteractionEngine {
    config: InteractionConfig,
    phase: Phase,
    /// Faults charged to the interaction in progress.
    faults: u32,
    /// Collected points; cleared at each interaction start.
    gesture: Gesture,
    /// Boxed once, reset in place per interaction.
    extractor: Box<FeatureExtractor>,
    filter: PointFilter,
    /// Stack buffer for the per-point eager ambiguity check.
    features: [f64; FEATURE_COUNT],
    /// Per-class evaluation scratch for the commit-time classification;
    /// sized to the recognizer's class count on first use, then reused.
    evaluations: Vec<f64>,
}

impl InteractionEngine {
    /// An idle engine.
    pub fn new(config: InteractionConfig) -> Self {
        let filter = PointFilter::new(config.min_point_distance);
        Self {
            config,
            phase: Phase::Idle,
            faults: 0,
            gesture: Gesture::new(),
            extractor: Box::new(FeatureExtractor::new()),
            filter,
            features: [0.0; FEATURE_COUNT],
            evaluations: Vec::new(),
        }
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// `true` while an interaction is in progress (any non-idle phase).
    pub fn in_progress(&self) -> bool {
        !matches!(self.phase, Phase::Idle)
    }

    /// The gesture collected by the current (or, once idle, the last)
    /// interaction.
    pub fn gesture(&self) -> &Gesture {
        &self.gesture
    }

    /// Returns the engine to idle, keeping its warmed buffers.
    /// Observationally identical to a new engine with the same config.
    pub fn reset(&mut self) {
        self.phase = Phase::Idle;
        self.faults = 0;
        self.gesture.clear();
        self.extractor.reset();
        self.filter.reset();
    }

    /// Charges `n` stream faults found upstream (typically by an
    /// `EventSanitizer`) to the interaction in progress. Exhausting
    /// [`InteractionConfig::fault_budget`] cancels the interaction into
    /// [`Phase::Draining`]. Charges while idle are dropped: there is no
    /// interaction to blame.
    pub fn charge(&mut self, n: u32) {
        if !self.in_progress() {
            return;
        }
        self.faults = self.faults.saturating_add(n);
        if self.faults <= self.config.fault_budget {
            return;
        }
        let (class, total_points) = match self.phase {
            Phase::Collecting => (None, self.gesture.len() as u32),
            Phase::Manipulating {
                class,
                total_points,
            } => (Some(class), total_points),
            Phase::Idle | Phase::Draining { .. } => return,
        };
        self.phase = Phase::Draining {
            outcome: DrainOutcome::Cancelled,
            class,
            total_points,
        };
    }

    // lint:hot-path start — per-event steady state: no panics, no allocation
    /// Feeds one event through the state machine, handing the steps it
    /// provokes to `out`.
    ///
    /// Any event is accepted. A non-finite one is never collected or
    /// classified: it is charged as a fault, and if it ends the
    /// interaction it is honored like a grab break (the kind is
    /// trustworthy, the payload is not).
    #[inline]
    pub fn step(&mut self, rec: &EagerRecognizer, event: InputEvent, out: &mut impl StepSink) {
        if !event.is_finite() {
            if self.in_progress() {
                let fault = if event.x.is_finite() && event.y.is_finite() {
                    StreamFault::NonFiniteTimestamp { repaired: false }
                } else {
                    StreamFault::NonFiniteCoordinates {
                        t: event.t,
                        repaired: false,
                    }
                };
                out.push(Step::Fault(fault));
                self.charge(1);
                if event.ends_interaction() {
                    self.teardown(out);
                }
            }
            return;
        }
        if event.is_grab_break() {
            self.teardown(out);
            return;
        }
        if let Phase::Draining { .. } = self.phase {
            if event.ends_interaction() {
                self.teardown(out);
            }
            return;
        }
        match (self.phase, event.kind) {
            (Phase::Idle, EventKind::MouseDown { .. }) => {
                self.reset();
                let p = Point::new(event.x, event.y, event.t);
                self.filter.accept(&p);
                self.gesture.push(p);
                self.extractor.update(p);
                self.phase = Phase::Collecting;
            }
            (Phase::Collecting, EventKind::MouseMove) => {
                let p = Point::new(event.x, event.y, event.t);
                if !self.filter.accept(&p) {
                    return;
                }
                self.gesture.push(p);
                self.extractor.update(p);
                if self.config.eager && self.extractor.count() >= rec.config().min_subgesture_points
                {
                    let classifier = rec.full_classifier();
                    let features = masked(&self.extractor, classifier.mask(), &mut self.features);
                    if rec.auc().is_unambiguous_slice(features) {
                        // The AUC is trained on the full classifier's mask,
                        // so the features it just judged are the commit's.
                        let class = classify(
                            classifier,
                            features,
                            &mut self.evaluations,
                            self.config.min_probability,
                        );
                        self.commit(PhaseTransition::Eager, class, out);
                    }
                }
            }
            (Phase::Collecting, EventKind::Timeout) => {
                self.commit_collected(rec, PhaseTransition::Timeout, out);
            }
            (Phase::Collecting, EventKind::MouseUp { .. }) => {
                self.commit_collected(rec, PhaseTransition::MouseUp, out);
            }
            (Phase::Collecting, EventKind::MouseDown { .. }) => {
                // The sanitizer demotes duplicate downs upstream; one that
                // slips through is charged and otherwise ignored.
                out.push(Step::Fault(StreamFault::DuplicateMouseDown { t: event.t }));
                self.charge(1);
            }
            (
                Phase::Manipulating {
                    class,
                    total_points,
                },
                EventKind::MouseMove,
            ) => {
                self.phase = Phase::Manipulating {
                    class,
                    total_points: total_points + 1,
                };
                out.push(Step::Manipulate {
                    x: event.x,
                    y: event.y,
                    t: event.t,
                });
            }
            (
                Phase::Manipulating {
                    class,
                    total_points,
                },
                EventKind::MouseUp { .. },
            ) => {
                self.finish(
                    InteractionOutcome::Manipulated,
                    Some(class),
                    total_points,
                    out,
                );
            }
            _ => {}
        }
    }

    /// A timeout or mouse-up transition: nothing has been extracted for
    /// it yet, so extract the collected gesture's features and commit
    /// their classification. The warm extractor has accumulated exactly
    /// the collected points, so its features equal a fresh extraction
    /// without re-walking them.
    fn commit_collected(
        &mut self,
        rec: &EagerRecognizer,
        transition: PhaseTransition,
        out: &mut impl StepSink,
    ) {
        let classifier = rec.full_classifier();
        let features = masked(&self.extractor, classifier.mask(), &mut self.features);
        let class = classify(
            classifier,
            features,
            &mut self.evaluations,
            self.config.min_probability,
        );
        self.commit(transition, class, out);
    }

    /// The phase transition, given the collected gesture's classification
    /// (`None` when rejected): enter manipulation (mid-gesture trigger),
    /// finish (mouse-up), or hold the rejection until the grab ends.
    fn commit(&mut self, transition: PhaseTransition, class: Option<u16>, out: &mut impl StepSink) {
        let points = self.gesture.len() as u32;
        out.push(Step::Classified {
            transition,
            class,
            points,
        });
        match (class, transition) {
            (Some(class), PhaseTransition::MouseUp) => {
                self.finish(InteractionOutcome::Recognized, Some(class), points, out);
            }
            (Some(class), _) => {
                self.phase = Phase::Manipulating {
                    class,
                    total_points: points,
                };
            }
            (None, PhaseTransition::MouseUp) => {
                self.finish(InteractionOutcome::Rejected, None, points, out);
            }
            // The grab is still live: hold the rejection until the stream
            // ends the interaction.
            (None, _) => {
                self.phase = Phase::Draining {
                    outcome: DrainOutcome::Rejected,
                    class: None,
                    total_points: points,
                };
            }
        }
    }

    /// Ends the interaction in progress now: a grab break, a corrupted
    /// ending event, or the end of a drain.
    fn teardown(&mut self, out: &mut impl StepSink) {
        let (outcome, class, total_points) = match self.phase {
            Phase::Idle => return,
            Phase::Collecting => (
                InteractionOutcome::Cancelled,
                None,
                self.gesture.len() as u32,
            ),
            Phase::Manipulating {
                class,
                total_points,
            } => (InteractionOutcome::Cancelled, Some(class), total_points),
            Phase::Draining {
                outcome,
                class,
                total_points,
            } => (outcome.into(), class, total_points),
        };
        self.finish(outcome, class, total_points, out);
    }

    /// Emits the terminal outcome and returns to idle. The single exit
    /// point of the state machine.
    fn finish(
        &mut self,
        outcome: InteractionOutcome,
        class: Option<u16>,
        total_points: u32,
        out: &mut impl StepSink,
    ) {
        out.push(Step::Outcome {
            outcome,
            class,
            total_points,
            faults: self.faults,
        });
        self.faults = 0;
        self.phase = Phase::Idle;
    }
    // lint:hot-path end

    /// Captures the engine's recoverable state. Idle engines carry no
    /// points: the next mouse-down clears them anyway.
    pub fn snapshot(&self) -> InteractionSnapshot {
        InteractionSnapshot {
            phase: self.phase,
            faults: self.faults,
            points: if self.in_progress() {
                self.gesture.points().to_vec()
            } else {
                Vec::new()
            },
        }
    }

    /// Restores a snapshot in place. The collection state is rebuilt by
    /// replaying the points in order, the same float accumulation the live
    /// engine performed, so the restored engine's future steps are
    /// identical to one that never stopped.
    pub fn restore(&mut self, snapshot: &InteractionSnapshot) {
        self.reset();
        self.phase = snapshot.phase;
        self.faults = snapshot.faults;
        for point in &snapshot.points {
            self.filter.accept(point);
            self.gesture.push(*point);
            self.extractor.update(*point);
        }
    }
}

// lint:hot-path start — the commit's feature and classification steps
/// Fills the first `mask.count()` slots of `buf` with the extractor's
/// masked features and returns them.
#[inline]
fn masked<'a>(
    extractor: &FeatureExtractor,
    mask: &FeatureMask,
    buf: &'a mut [f64; FEATURE_COUNT],
) -> &'a [f64] {
    // lint:allow(hot-path-index): mask.count() <= FEATURE_COUNT by construction
    let slots = &mut buf[..mask.count()];
    extractor.masked_features_into(mask, slots);
    slots
}

/// The commit classification: the checked argmax over `features`, so
/// non-finite or degenerate features are rejected explicitly rather than
/// argmaxed over NaN. P̂ is computed only when a rejection threshold reads
/// it, from the same evaluations.
#[inline]
fn classify(
    classifier: &Classifier,
    features: &[f64],
    evaluations: &mut Vec<f64>,
    min_probability: Option<f64>,
) -> Option<u16> {
    evaluations.resize(classifier.num_classes(), 0.0);
    let class = classifier.argmax_checked(features, evaluations)?;
    if min_probability.is_some_and(|min| classifier.probability(evaluations, class) < min) {
        return None;
    }
    Some(class as u16)
}
// lint:hot-path end
