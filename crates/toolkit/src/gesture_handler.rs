//! The gesture handler: the two-phase interaction technique.
//!
//! §3.2: "the gesture handler implements the two-phase interaction
//! technique. Each instance of a gesture handler recognizes its own set of
//! gestures, and can have its own semantics associated with each gesture.
//! The handler is responsible for collecting and inking the gesture,
//! determining when the phase transition occurs, classifying the gesture,
//! and executing the gesture's semantics."
//!
//! Collecting, the phase transition and classification are the
//! [`InteractionEngine`]'s (see [`grandma_core::interaction`] for the
//! state machine and its three transition triggers); this handler is the
//! toolkit adapter over it. It filters by button and view, captures the
//! target view, and executes the semantics: on the transition the gesture
//! is classified and the class's `recog` expression is evaluated (its
//! value bound to the variable `recog`); every further mouse point
//! evaluates `manip`; releasing the button evaluates `done`.

use std::collections::HashMap;
use std::rc::Rc;

use grandma_core::interaction::{
    InteractionConfig, InteractionEngine, InteractionOutcome, Phase, PhaseTransition, Step,
};
use grandma_core::EagerRecognizer;
use grandma_events::{Button, EventKind, InputEvent, StreamFault};
use grandma_geom::Gesture;
use grandma_sem::{eval, GestureSemantics, SemError, Value};

use crate::handler::{Ctx, EventHandler, HandlerResult};
use crate::view::{ViewId, ViewStore};

/// One gesture class the handler recognizes: its name plus its
/// `recog`/`manip`/`done` semantics.
#[derive(Debug, Clone)]
pub struct GestureClass {
    /// Class name (diagnostics and traces).
    pub name: String,
    /// The class's interaction semantics.
    pub semantics: GestureSemantics,
}

impl GestureClass {
    /// A class with no-op semantics.
    pub fn named(name: &str) -> Self {
        Self {
            name: name.to_string(),
            semantics: GestureSemantics::noop(),
        }
    }

    /// A class with the given semantics.
    pub fn with_semantics(name: &str, semantics: GestureSemantics) -> Self {
        Self {
            name: name.to_string(),
            semantics,
        }
    }
}

/// Gesture-handler configuration.
#[derive(Debug, Clone)]
pub struct GestureHandlerConfig {
    /// Which button starts a gesture.
    pub button: Button,
    /// Whether a mouse-down over the background (no view) starts a
    /// gesture. GDP gestures at the top window, so `true` there.
    pub over_background: bool,
    /// The engine settings: eager recognition, jitter filter, rejection
    /// threshold, and fault budget (non-finite samples seen by the
    /// handler plus any faults reported via
    /// [`GestureHandler::note_faults`]).
    pub interaction: InteractionConfig,
}

impl Default for GestureHandlerConfig {
    fn default() -> Self {
        Self {
            button: Button::Left,
            over_background: true,
            interaction: InteractionConfig::default(),
        }
    }
}

/// A record of one completed gesture interaction, for tests and traces.
#[derive(Debug, Clone)]
pub struct InteractionTrace {
    /// The recognized class, or `None` when rejected.
    pub class: Option<usize>,
    /// The class name ("?" when rejected).
    pub class_name: String,
    /// Which trigger caused the phase transition.
    pub transition: PhaseTransition,
    /// Points collected when classification fired.
    pub points_at_recognition: usize,
    /// Points in the whole interaction.
    pub total_points: usize,
    /// Number of `manip` evaluations that ran.
    pub manip_evaluations: usize,
    /// Semantic errors encountered (kept, not raised — an interaction
    /// must not wedge the interface).
    pub errors: Vec<SemError>,
    /// The terminal state the interaction reached.
    pub outcome: InteractionOutcome,
    /// Stream faults observed during this interaction: non-finite samples
    /// the handler skipped itself, plus anything the pipeline reported
    /// through [`GestureHandler::note_faults`].
    pub faults: Vec<StreamFault>,
}

/// An interaction past its phase transition: its trace so far, and for an
/// accepted class the semantics and gestural attributes `manip` and
/// `done` run against.
struct Committed {
    trace: InteractionTrace,
    semantics: GestureSemantics,
    attrs: HashMap<String, Value>,
}

/// The gesture handler. Attach to a view, a view class, or the root
/// (§3.1's "mouse press over the background window is interpreted as
/// gesture" pattern).
pub struct GestureHandler {
    recognizer: Rc<EagerRecognizer>,
    classes: Vec<GestureClass>,
    button: Button,
    over_background: bool,
    engine: InteractionEngine,
    /// Engine step scratch, reused across events.
    steps: Vec<Step>,
    /// The view the interaction in progress started at.
    target: Option<ViewId>,
    committed: Option<Committed>,
    traces: Vec<InteractionTrace>,
    /// Fault log of the interaction in progress; attached to its trace
    /// when the interaction reaches a terminal state.
    faults: Vec<StreamFault>,
}

impl GestureHandler {
    /// Creates a gesture handler.
    ///
    /// `classes[c]` must line up with the recognizer's class indices.
    ///
    /// # Panics
    ///
    /// Panics if the class list length differs from the recognizer's
    /// class count.
    pub fn new(
        recognizer: Rc<EagerRecognizer>,
        classes: Vec<GestureClass>,
        config: GestureHandlerConfig,
    ) -> Self {
        assert_eq!(
            classes.len(),
            recognizer.full_classifier().num_classes(),
            "one GestureClass per recognizer class"
        );
        Self {
            recognizer,
            classes,
            button: config.button,
            over_background: config.over_background,
            engine: InteractionEngine::new(config.interaction),
            steps: Vec::new(),
            target: None,
            committed: None,
            traces: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Completed interaction traces, oldest first.
    pub fn traces(&self) -> &[InteractionTrace] {
        &self.traces
    }

    /// Clears accumulated traces.
    pub fn clear_traces(&mut self) {
        self.traces.clear();
    }

    /// `true` while an interaction is in progress (any non-idle state,
    /// including the cancelled-but-still-grabbed drain).
    pub fn interaction_in_progress(&self) -> bool {
        self.engine.in_progress()
    }

    /// Reports stream faults (typically from an upstream
    /// [`grandma_events::EventSanitizer`]) against the interaction in
    /// progress. They are attached to the interaction's trace and count
    /// toward [`InteractionConfig::fault_budget`]; exhausting the budget
    /// cancels the interaction. Faults reported while idle are dropped —
    /// there is no interaction to charge them to.
    pub fn note_faults(&mut self, faults: &[StreamFault]) {
        if faults.is_empty() || !self.engine.in_progress() {
            return;
        }
        self.faults.extend_from_slice(faults);
        self.engine
            .charge(u32::try_from(faults.len()).unwrap_or(u32::MAX));
    }

    /// A mouse-down or mouse-up of another button that the engine must
    /// not see: one that would start a gesture, or a finite one that would
    /// commit or end it. Corrupted events, and any end of a drain, still
    /// go to the engine.
    fn other_button(&self, event: &InputEvent) -> bool {
        let button = match event.kind {
            EventKind::MouseDown { button } | EventKind::MouseUp { button } => button,
            _ => return false,
        };
        button != self.button
            && match self.engine.phase() {
                Phase::Idle => event.is_down(),
                Phase::Collecting | Phase::Manipulating { .. } => {
                    event.is_up() && event.is_finite()
                }
                Phase::Draining { .. } => false,
            }
    }

    /// Acts on one engine step.
    fn apply(&mut self, step: Step, ctx: &mut Ctx<'_>) {
        match step {
            Step::Fault(fault) => self.faults.push(fault),
            Step::Classified {
                transition,
                class,
                points,
            } => self.commit(transition, class.map(usize::from), points as usize, ctx),
            Step::Manipulate { x, y, t } => self.manipulate(x, y, t, ctx),
            Step::Outcome {
                outcome,
                total_points,
                ..
            } => self.finish(outcome, total_points as usize, ctx),
        }
    }

    /// The phase transition: start the trace and, for an accepted class,
    /// evaluate `recog`.
    fn commit(
        &mut self,
        transition: PhaseTransition,
        class: Option<usize>,
        points: usize,
        ctx: &mut Ctx<'_>,
    ) {
        let class = class.and_then(|c| self.classes.get(c).map(|gc| (c, gc)));
        let mut trace = InteractionTrace {
            class: class.map(|(c, _)| c),
            class_name: class.map_or("?", |(_, gc)| &gc.name).to_string(),
            transition,
            points_at_recognition: points,
            total_points: points,
            manip_evaluations: 0,
            errors: Vec::new(),
            // Set when the interaction ends.
            outcome: InteractionOutcome::Rejected,
            faults: Vec::new(),
        };
        let Some((_, gesture_class)) = class else {
            self.committed = Some(Committed {
                trace,
                semantics: GestureSemantics::noop(),
                attrs: HashMap::new(),
            });
            return;
        };
        let semantics = gesture_class.semantics.clone();
        let attrs = attrs_at_recognition(self.engine.gesture(), ctx.views);
        // Bind `view` to the target view's model when it has one;
        // otherwise leave the application's existing binding (GDP binds
        // `view` to its top-level window object).
        if let Some(model) = self
            .target
            .and_then(|id| ctx.views.get(id))
            .and_then(|v| v.model.clone())
        {
            ctx.env.bind("view", Value::Obj(model));
        }
        install_attrs(&attrs, ctx);
        match eval(&semantics.recog, ctx.env) {
            Ok(value) => ctx.env.bind("recog", value),
            Err(e) => trace.errors.push(e),
        }
        self.committed = Some(Committed {
            trace,
            semantics,
            attrs,
        });
    }

    /// One manipulation-phase move: update the pointer attributes and
    /// evaluate `manip`.
    fn manipulate(&mut self, x: f64, y: f64, t: f64, ctx: &mut Ctx<'_>) {
        let Some(Committed {
            trace,
            semantics,
            attrs,
        }) = &mut self.committed
        else {
            return;
        };
        // The previous mouse position, so `manip` semantics can express
        // incremental dragging (`moveFromX:y:toX:y:`).
        let prev_x = attrs.get("currentX").cloned().unwrap_or(Value::Num(x));
        let prev_y = attrs.get("currentY").cloned().unwrap_or(Value::Num(y));
        attrs.insert("prevX".into(), prev_x);
        attrs.insert("prevY".into(), prev_y);
        attrs.insert("currentX".into(), Value::Num(x));
        attrs.insert("currentY".into(), Value::Num(y));
        attrs.insert("currentT".into(), Value::Num(t));
        install_attrs(attrs, ctx);
        match eval(&semantics.manip, ctx.env) {
            Ok(_) => trace.manip_evaluations += 1,
            Err(e) => trace.errors.push(e),
        }
    }

    /// Finalizes the interaction: runs `done` after a clean end, attaches
    /// the fault log, and records the trace.
    fn finish(&mut self, outcome: InteractionOutcome, total_points: usize, ctx: &mut Ctx<'_>) {
        let mut trace = match self.committed.take() {
            Some(Committed {
                mut trace,
                semantics,
                attrs,
            }) => {
                if matches!(
                    outcome,
                    InteractionOutcome::Recognized | InteractionOutcome::Manipulated
                ) {
                    install_attrs(&attrs, ctx);
                    if let Err(e) = eval(&semantics.done, ctx.env) {
                        trace.errors.push(e);
                    }
                }
                trace
            }
            // Cancelled before any phase transition.
            None => InteractionTrace {
                class: None,
                class_name: "?".to_string(),
                transition: PhaseTransition::Aborted,
                points_at_recognition: total_points,
                total_points,
                manip_evaluations: 0,
                errors: Vec::new(),
                outcome,
                faults: Vec::new(),
            },
        };
        trace.outcome = outcome;
        trace.total_points = total_points;
        trace.faults = std::mem::take(&mut self.faults);
        self.traces.push(trace);
    }
}

/// Builds the gestural attribute map at the moment of recognition.
fn attrs_at_recognition(gesture: &Gesture, views: &ViewStore) -> HashMap<String, Value> {
    let mut attrs = HashMap::new();
    if let (Some(first), Some(last)) = (gesture.first(), gesture.last()) {
        attrs.insert("startX".into(), Value::Num(first.x));
        attrs.insert("startY".into(), Value::Num(first.y));
        attrs.insert("startT".into(), Value::Num(first.t));
        attrs.insert("currentX".into(), Value::Num(last.x));
        attrs.insert("currentY".into(), Value::Num(last.y));
        attrs.insert("endX".into(), Value::Num(last.x));
        attrs.insert("endY".into(), Value::Num(last.y));
        attrs.insert("prevX".into(), Value::Num(last.x));
        attrs.insert("prevY".into(), Value::Num(last.y));
        attrs.insert("duration".into(), Value::Num(gesture.duration()));
        // Bounding-box attributes of the collected stroke: GDP's
        // ellipse centers itself on the gesture's extent.
        let bbox = gesture.bbox();
        let center = bbox.center();
        attrs.insert("centerX".into(), Value::Num(center.x));
        attrs.insert("centerY".into(), Value::Num(center.y));
        attrs.insert("halfWidth".into(), Value::Num(bbox.width() / 2.0));
        attrs.insert("halfHeight".into(), Value::Num(bbox.height() / 2.0));
        attrs.insert("bboxMinX".into(), Value::Num(bbox.min_x));
        attrs.insert("bboxMinY".into(), Value::Num(bbox.min_y));
        attrs.insert("bboxMaxX".into(), Value::Num(bbox.max_x));
        attrs.insert("bboxMaxY".into(), Value::Num(bbox.max_y));
        // Attributes the "modified GDP" maps to application
        // parameters: stroke length (line thickness) and initial angle
        // (rectangle orientation).
        attrs.insert("length".into(), Value::Num(gesture.path_length()));
        let third = gesture.points().get(2).copied().unwrap_or(*last);
        attrs.insert(
            "initialAngle".into(),
            Value::Num((third.y - first.y).atan2(third.x - first.x)),
        );
        // The set of models fully enclosed by the gesture's bounding
        // box (GDP's group operand).
        let enclosed: Vec<Value> = views
            .enclosed_by(&gesture.bbox())
            .into_iter()
            .filter_map(|id| views.get(id).and_then(|v| v.model.clone()))
            .map(Value::Obj)
            .collect();
        attrs.insert("enclosed".into(), Value::List(enclosed));
    }
    attrs
}

fn install_attrs(attrs: &HashMap<String, Value>, ctx: &mut Ctx<'_>) {
    let shared: Rc<HashMap<String, Value>> = Rc::new(attrs.clone());
    ctx.env
        .set_attr_source(Rc::new(move |name| shared.get(name).cloned()));
}

impl EventHandler for GestureHandler {
    fn name(&self) -> &'static str {
        "gesture"
    }

    fn wants(&self, event: &InputEvent, target: Option<ViewId>, _views: &ViewStore) -> bool {
        match event.kind {
            EventKind::MouseDown { button } => {
                button == self.button && (self.over_background || target.is_some())
            }
            _ => self.engine.in_progress(),
        }
    }

    fn handle(&mut self, event: &InputEvent, ctx: &mut Ctx<'_>) -> HandlerResult {
        let was_in_progress = self.engine.in_progress();
        if !self.other_button(event) {
            let mut steps = std::mem::take(&mut self.steps);
            self.engine.step(&self.recognizer, *event, &mut steps);
            if !was_in_progress && self.engine.in_progress() {
                self.target = ctx.target;
            }
            for step in steps.drain(..) {
                self.apply(step, ctx);
            }
            self.steps = steps;
        }
        if was_in_progress || self.engine.in_progress() {
            HandlerResult::Consumed
        } else {
            HandlerResult::Ignored
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::Interface;
    use grandma_core::{EagerConfig, FeatureMask};
    use grandma_events::{gesture_events, gesture_events_with_hold, DwellDetector};
    use grandma_geom::Point;
    use grandma_sem::{obj_ref, Expr, Recorder};
    use std::cell::RefCell;

    /// Two L-shaped classes: right-then-up (0), right-then-down (1).
    fn training() -> Vec<Vec<Gesture>> {
        let make = |sign: f64, jiggle: f64| {
            let mut pts = Vec::new();
            for i in 0..10 {
                pts.push(Point::new(
                    i as f64 * 8.0 + jiggle * (i % 3) as f64,
                    jiggle * (i % 2) as f64,
                    i as f64 * 10.0,
                ));
            }
            for i in 1..10 {
                pts.push(Point::new(
                    72.0 + jiggle,
                    sign * i as f64 * 8.0,
                    90.0 + i as f64 * 10.0,
                ));
            }
            Gesture::from_points(pts)
        };
        vec![
            (0..10).map(|e| make(1.0, 0.1 + e as f64 * 0.05)).collect(),
            (0..10).map(|e| make(-1.0, 0.1 + e as f64 * 0.05)).collect(),
        ]
    }

    fn recognizer() -> Rc<EagerRecognizer> {
        let (rec, _) =
            EagerRecognizer::train(&training(), &FeatureMask::all(), &EagerConfig::default())
                .unwrap();
        Rc::new(rec)
    }

    fn handler_with(
        recorder_msgs: &GestureSemantics,
        config: GestureHandlerConfig,
    ) -> (Interface, Rc<RefCell<GestureHandler>>, grandma_sem::ObjRef) {
        let mut interface = Interface::new();
        let app = obj_ref(Recorder::new());
        interface.env_mut().bind("view", Value::Obj(app.clone()));
        let classes = vec![
            GestureClass::with_semantics("ru", recorder_msgs.clone()),
            GestureClass::named("rd"),
        ];
        let gh = Rc::new(RefCell::new(GestureHandler::new(
            recognizer(),
            classes,
            config,
        )));
        let gh_dyn: HandlerRef = gh.clone();
        interface.attach_root_handler(gh_dyn);
        (interface, gh, app)
    }

    use crate::handler::HandlerRef;

    fn semantics_counting() -> GestureSemantics {
        GestureSemantics {
            recog: Expr::send(Expr::var("view"), "recognized", vec![]),
            manip: Expr::send(
                Expr::var("view"),
                "manip:y:",
                vec![Expr::attr("currentX"), Expr::attr("currentY")],
            ),
            done: Expr::send(Expr::var("view"), "done", vec![]),
        }
    }

    fn run_gesture(interface: &mut Interface, g: &Gesture, hold: Option<(usize, f64)>) {
        let events = match hold {
            None => gesture_events(g, Button::Left),
            Some((at, ms)) => gesture_events_with_hold(g, Button::Left, Some((at, ms))),
        };
        let mut dwell = DwellDetector::paper_default();
        for e in dwell.expand(&events) {
            interface.dispatch(&e);
        }
    }

    #[test]
    fn eager_transition_enters_manipulation_early() {
        let (mut interface, gh, app) =
            handler_with(&semantics_counting(), GestureHandlerConfig::default());
        let g = &training()[0][0];
        run_gesture(&mut interface, g, None);
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.class, Some(0));
        assert_eq!(trace.transition, PhaseTransition::Eager);
        assert!(trace.points_at_recognition < trace.total_points);
        assert!(trace.errors.is_empty(), "errors: {:?}", trace.errors);
        assert!(trace.manip_evaluations > 0);
        let app = app.borrow();
        let _ = app.type_name();
    }

    #[test]
    fn mouse_up_transition_omits_manipulation() {
        let config = GestureHandlerConfig {
            interaction: InteractionConfig {
                eager: false,
                ..InteractionConfig::default()
            },
            ..GestureHandlerConfig::default()
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), config);
        let g = &training()[0][1];
        run_gesture(&mut interface, g, None);
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.transition, PhaseTransition::MouseUp);
        assert_eq!(trace.manip_evaluations, 0);
        assert_eq!(trace.points_at_recognition, trace.total_points);
    }

    #[test]
    fn dwell_timeout_triggers_transition() {
        let config = GestureHandlerConfig {
            interaction: InteractionConfig {
                eager: false,
                ..InteractionConfig::default()
            },
            ..GestureHandlerConfig::default()
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), config);
        let g = &training()[0][2];
        // Hold still for 300 ms after point 12 (past the corner).
        run_gesture(&mut interface, g, Some((12, 300.0)));
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.transition, PhaseTransition::Timeout);
        assert_eq!(trace.class, Some(0));
        assert!(trace.points_at_recognition <= 13);
        assert!(trace.manip_evaluations > 0, "manipulation follows the hold");
    }

    #[test]
    fn eager_fires_before_timeout_would() {
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), GestureHandlerConfig::default());
        let g = &training()[0][3];
        run_gesture(&mut interface, g, Some((15, 400.0)));
        let gh = gh.borrow();
        assert_eq!(gh.traces()[0].transition, PhaseTransition::Eager);
    }

    #[test]
    fn recog_value_is_bound_to_recog_variable() {
        let semantics = GestureSemantics {
            recog: Expr::num(42.0),
            manip: Expr::Nil,
            done: Expr::Nil,
        };
        let (mut interface, _, _) = handler_with(&semantics, GestureHandlerConfig::default());
        run_gesture(&mut interface, &training()[0][0], None);
        assert_eq!(
            interface.env().lookup("recog").unwrap().as_num(),
            Some(42.0)
        );
    }

    #[test]
    fn semantic_errors_are_collected_not_fatal() {
        let semantics = GestureSemantics {
            recog: Expr::var("no_such_variable"),
            manip: Expr::Nil,
            done: Expr::Nil,
        };
        let (mut interface, gh, _) = handler_with(&semantics, GestureHandlerConfig::default());
        run_gesture(&mut interface, &training()[0][0], None);
        let gh = gh.borrow();
        assert_eq!(gh.traces().len(), 1, "interaction completed despite error");
        assert!(!gh.traces()[0].errors.is_empty());
    }

    #[test]
    fn consecutive_interactions_reset_state() {
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), GestureHandlerConfig::default());
        run_gesture(&mut interface, &training()[0][0], None);
        run_gesture(&mut interface, &training()[1][0], None);
        let gh = gh.borrow();
        assert_eq!(gh.traces().len(), 2);
        assert_eq!(gh.traces()[0].class, Some(0));
        assert_eq!(gh.traces()[1].class, Some(1));
    }

    #[test]
    fn rejection_threshold_suppresses_semantics() {
        let config = GestureHandlerConfig {
            interaction: InteractionConfig {
                eager: false,
                min_probability: Some(1.1), // impossible: always reject
                ..InteractionConfig::default()
            },
            ..GestureHandlerConfig::default()
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), config);
        run_gesture(&mut interface, &training()[0][0], None);
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.class, None);
        assert_eq!(trace.class_name, "?");
    }

    #[test]
    fn grab_break_cancels_collection_without_semantics() {
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), GestureHandlerConfig::default());
        let g = &training()[0][0];
        let mut events = gesture_events(g, Button::Left);
        // Replace everything from point 5 on with a grab break.
        events.truncate(5);
        let t = events.last().map_or(0.0, |e| e.t) + 1.0;
        events.push(InputEvent::new(EventKind::GrabBreak, 0.0, 0.0, t));
        for e in &events {
            interface.dispatch(e);
        }
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.outcome, InteractionOutcome::Cancelled);
        assert_eq!(trace.transition, PhaseTransition::Aborted);
        assert_eq!(trace.class, None);
        assert_eq!(trace.manip_evaluations, 0);
        assert!(!gh.interaction_in_progress(), "must return to idle");
    }

    #[test]
    fn grab_break_cancels_manipulation_and_releases_the_grab() {
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), GestureHandlerConfig::default());
        let g = &training()[0][0];
        let events = gesture_events(g, Button::Left);
        // Feed all but the mouse-up, then break the grab.
        for e in &events[..events.len() - 1] {
            interface.dispatch(e);
        }
        let t = events[events.len() - 2].t + 1.0;
        interface.dispatch(&InputEvent::new(EventKind::GrabBreak, 0.0, 0.0, t));
        {
            let gh = gh.borrow();
            let trace = &gh.traces()[0];
            assert_eq!(trace.outcome, InteractionOutcome::Cancelled);
            assert_eq!(trace.transition, PhaseTransition::Eager);
            assert!(!gh.interaction_in_progress());
        }
        // The interface grab is released: the next gesture works normally.
        run_gesture(&mut interface, &training()[1][0], None);
        let gh = gh.borrow();
        assert_eq!(gh.traces().len(), 2);
        assert_eq!(gh.traces()[1].class, Some(1));
    }

    #[test]
    fn non_finite_samples_are_skipped_and_logged() {
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), GestureHandlerConfig::default());
        let g = &training()[0][0];
        let events = gesture_events(g, Button::Left);
        for (i, e) in events.iter().enumerate() {
            interface.dispatch(e);
            if i == 3 {
                // Inject a corrupted move mid-collection.
                interface.dispatch(&InputEvent::new(
                    EventKind::MouseMove,
                    f64::NAN,
                    10.0,
                    e.t + 0.5,
                ));
            }
        }
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.class, Some(0), "clean samples still classify");
        assert_eq!(trace.faults.len(), 1);
        assert!(matches!(
            trace.faults[0],
            StreamFault::NonFiniteCoordinates { .. }
        ));
    }

    #[test]
    fn fault_budget_exhaustion_cancels_the_interaction() {
        let config = GestureHandlerConfig {
            interaction: InteractionConfig {
                fault_budget: 2,
                ..InteractionConfig::default()
            },
            ..GestureHandlerConfig::default()
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), config);
        let g = &training()[0][0];
        let events = gesture_events(g, Button::Left);
        for (i, e) in events.iter().enumerate() {
            interface.dispatch(e);
            if i < 4 {
                // One corrupted sample after each of the first four
                // events: blows a budget of 2 mid-collection.
                interface.dispatch(&InputEvent::new(
                    EventKind::MouseMove,
                    f64::INFINITY,
                    0.0,
                    e.t + 0.5,
                ));
            }
        }
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.outcome, InteractionOutcome::Cancelled);
        assert!(trace.faults.len() > 2);
        assert!(!gh.interaction_in_progress());
    }

    #[test]
    fn note_faults_counts_toward_the_budget() {
        let config = GestureHandlerConfig {
            interaction: InteractionConfig {
                fault_budget: 1,
                ..InteractionConfig::default()
            },
            ..GestureHandlerConfig::default()
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), config);
        let g = &training()[0][0];
        let events = gesture_events(g, Button::Left);
        interface.dispatch(&events[0]);
        interface.dispatch(&events[1]);
        gh.borrow_mut().note_faults(&[
            StreamFault::NonFiniteTimestamp { repaired: true },
            StreamFault::DuplicateMouseDown { t: 5.0 },
        ]);
        for e in &events[2..] {
            interface.dispatch(e);
        }
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.outcome, InteractionOutcome::Cancelled);
        assert_eq!(trace.faults.len(), 2);
    }

    #[test]
    fn note_faults_while_idle_is_dropped() {
        let (_, gh, _) = handler_with(&semantics_counting(), GestureHandlerConfig::default());
        gh.borrow_mut()
            .note_faults(&[StreamFault::NonFiniteTimestamp { repaired: false }]);
        assert!(!gh.borrow().interaction_in_progress());
        assert!(gh.borrow().traces().is_empty());
    }

    #[test]
    fn outcomes_map_to_transitions() {
        // Mouse-up transition → Recognized; eager transition → Manipulated.
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), GestureHandlerConfig::default());
        run_gesture(&mut interface, &training()[0][0], None);
        let eager_cfg = GestureHandlerConfig {
            interaction: InteractionConfig {
                eager: false,
                ..InteractionConfig::default()
            },
            ..GestureHandlerConfig::default()
        };
        let (mut iface2, gh2, _) = handler_with(&semantics_counting(), eager_cfg);
        run_gesture(&mut iface2, &training()[0][1], None);
        assert_eq!(
            gh.borrow().traces()[0].outcome,
            InteractionOutcome::Manipulated
        );
        assert_eq!(
            gh2.borrow().traces()[0].outcome,
            InteractionOutcome::Recognized
        );
    }

    #[test]
    fn rejection_outcome_is_terminal_and_returns_to_idle() {
        let config = GestureHandlerConfig {
            interaction: InteractionConfig {
                min_probability: Some(1.1),
                ..InteractionConfig::default()
            },
            ..GestureHandlerConfig::default()
        };
        let (mut interface, gh, _) = handler_with(&semantics_counting(), config);
        run_gesture(&mut interface, &training()[0][0], None);
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.outcome, InteractionOutcome::Rejected);
        assert_eq!(trace.class, None);
        assert!(!gh.interaction_in_progress());
    }

    #[test]
    fn jitter_filter_drops_close_points() {
        let (mut interface, gh, _) =
            handler_with(&semantics_counting(), GestureHandlerConfig::default());
        // A gesture whose points are all within 1 px: only the first
        // survives the 3 px filter, so classification happens at mouse-up
        // with one point.
        let tiny = Gesture::from_xy(&[(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)], 10.0);
        run_gesture(&mut interface, &tiny, None);
        let gh = gh.borrow();
        let trace = &gh.traces()[0];
        assert_eq!(trace.points_at_recognition, 1);
    }
}
