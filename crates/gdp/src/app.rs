//! The assembled GDP application.

use std::cell::RefCell;
use std::rc::Rc;

use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask, TrainError};
use grandma_events::{gesture_events, gesture_events_with_hold, Button, DwellDetector};
use grandma_geom::Gesture;
use grandma_sem::Value;
use grandma_synth::datasets;
use grandma_toolkit::{
    GestureHandler, GestureHandlerConfig, HandlerRef, InteractionConfig, InteractionTrace,
    Interface,
};

use crate::control::{ControlPointHandler, CONTROL_CLASS, CONTROL_HALF};
use crate::gesture_set::{gdp_gesture_classes, modified_gdp_gesture_classes};
use crate::semantics::{GdpApp, SceneRef};
use grandma_geom::BBox;
use grandma_toolkit::{handler_ref, ViewId};

/// GDP build options.
#[derive(Debug, Clone)]
pub struct GdpConfig {
    /// Eager recognition on (§5) or off (Figure 3's walkthrough).
    pub eager: bool,
    /// Use the "modified GDP" attribute mappings (§2: rectangle
    /// orientation from the initial angle, line thickness from gesture
    /// length).
    pub modified: bool,
    /// Seed for the synthetic training set.
    pub seed: u64,
    /// Training examples per class ("typically we train with 15 examples
    /// of each class", §4.2).
    pub training_per_class: usize,
}

impl Default for GdpConfig {
    fn default() -> Self {
        Self {
            eager: true,
            modified: false,
            seed: 0x6d9,
            training_per_class: 15,
        }
    }
}

/// The running GDP application: an [`Interface`] with a trained gesture
/// handler over the scene.
///
/// # Examples
///
/// ```
/// use grandma_gdp::{Gdp, GdpConfig};
///
/// let mut gdp = Gdp::build(GdpConfig::default()).unwrap();
/// // Draw by replaying a synthetic "rectangle" gesture from the
/// // training distribution.
/// let g = gdp.sample_gesture("rectangle", 7);
/// gdp.run_gesture(&g);
/// assert_eq!(gdp.scene().borrow().len(), 1);
/// ```
pub struct Gdp {
    interface: Interface,
    handler: Rc<RefCell<GestureHandler>>,
    scene: SceneRef,
    class_names: Vec<&'static str>,
    recognizer: Rc<EagerRecognizer>,
    seed: u64,
    control_views: Vec<ViewId>,
}

impl Gdp {
    /// Trains the recognizer on the synthetic GDP set and assembles the
    /// interface.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if recognizer training fails.
    pub fn build(config: GdpConfig) -> Result<Self, TrainError> {
        let data = datasets::gdp(config.seed, config.training_per_class, 0);
        // Push the training examples through the same jitter filter the
        // gesture handler applies at collection time, so training and
        // runtime see one distribution (GRANDMA trained from gestures
        // collected by the same input path).
        let handler_config = GestureHandlerConfig {
            interaction: InteractionConfig {
                eager: config.eager,
                ..InteractionConfig::default()
            },
            ..GestureHandlerConfig::default()
        };
        let training: Vec<Vec<Gesture>> = data
            .training
            .iter()
            .map(|gestures| {
                gestures
                    .iter()
                    .map(|g| {
                        grandma_core::PointFilter::filter_gesture(
                            handler_config.interaction.min_point_distance,
                            g,
                        )
                    })
                    .collect()
            })
            .collect();
        let (recognizer, _report) =
            EagerRecognizer::train(&training, &FeatureMask::all(), &EagerConfig::default())?;
        let recognizer = Rc::new(recognizer);

        let mut interface = Interface::new();
        let (scene, app) = GdpApp::create();
        interface.env_mut().bind("view", Value::Obj(app));

        let classes = if config.modified {
            modified_gdp_gesture_classes()
        } else {
            gdp_gesture_classes()
        };
        let handler = Rc::new(RefCell::new(GestureHandler::new(
            recognizer.clone(),
            classes,
            handler_config,
        )));
        let handler_dyn: HandlerRef = handler.clone();
        interface.attach_root_handler(handler_dyn);

        Ok(Self {
            interface,
            handler,
            scene,
            class_names: data.class_names.clone(),
            recognizer,
            seed: config.seed,
            control_views: Vec::new(),
        })
    }

    /// The drawing.
    pub fn scene(&self) -> &SceneRef {
        &self.scene
    }

    /// The interface (to attach extra views/handlers).
    pub fn interface_mut(&mut self) -> &mut Interface {
        &mut self.interface
    }

    /// The trained recognizer.
    pub fn recognizer(&self) -> &Rc<EagerRecognizer> {
        &self.recognizer
    }

    /// The gesture class names, in recognizer order.
    pub fn class_names(&self) -> &[&'static str] {
        &self.class_names
    }

    /// Completed interaction traces.
    pub fn traces(&self) -> Vec<InteractionTrace> {
        self.handler.borrow().traces().to_vec()
    }

    /// Draws a fresh synthetic example of the named gesture class,
    /// deterministically from `variant`.
    ///
    /// # Panics
    ///
    /// Panics if the class name is unknown.
    pub fn sample_gesture(&self, class: &str, variant: u64) -> Gesture {
        let idx = self
            .class_names
            .iter()
            .position(|&n| n == class)
            .unwrap_or_else(|| panic!("unknown gesture class {class}"));
        // One fresh test example per call, from a seed disjoint from
        // training.
        let data = datasets::gdp(self.seed.wrapping_add(1).wrapping_add(variant << 8), 0, 1);
        data.testing
            .iter()
            .find(|l| l.class == idx)
            .expect("dataset has one test example per class")
            .gesture
            .clone()
    }

    /// Replays a gesture against the interface (with dwell-timeout
    /// synthesis), translated to start at `(at_x, at_y)` if given.
    pub fn run_gesture(&mut self, gesture: &Gesture) {
        let events = gesture_events(gesture, Button::Left);
        let mut dwell = DwellDetector::paper_default();
        for e in dwell.expand(&events) {
            self.interface.dispatch(&e);
        }
        self.sync_control_points();
    }

    /// Replays a gesture that pauses (mouse still, button down) for
    /// `hold_ms` after point `at` — the explicit dwell-transition way of
    /// entering the manipulation phase.
    pub fn run_gesture_with_hold(&mut self, gesture: &Gesture, at: usize, hold_ms: f64) {
        let events = gesture_events_with_hold(gesture, Button::Left, Some((at, hold_ms)));
        let mut dwell = DwellDetector::paper_default();
        for e in dwell.expand(&events) {
            self.interface.dispatch(&e);
        }
        self.sync_control_points();
    }

    /// Replays a gesture whose manipulation phase continues along the
    /// given extra points after the gesture body (the "drag the second
    /// corner" part of Figure 3's walkthrough).
    pub fn run_gesture_then_drag(&mut self, gesture: &Gesture, drag: &[(f64, f64)], hold_ms: f64) {
        use grandma_events::{EventKind, InputEvent};
        let mut events =
            gesture_events_with_hold(gesture, Button::Left, Some((gesture.len() - 1, hold_ms)));
        // Remove the trailing MouseUp, splice the drag, then re-add it.
        let up = events.pop().expect("scripted gestures end with mouse-up");
        let mut t = up.t;
        for &(x, y) in drag {
            t += 10.0;
            events.push(InputEvent::new(EventKind::MouseMove, x, y, t));
        }
        events.push(InputEvent::new(
            up.kind,
            drag.last().map_or(up.x, |p| p.0),
            drag.last().map_or(up.y, |p| p.1),
            t + 1.0,
        ));
        let mut dwell = DwellDetector::paper_default();
        for e in dwell.expand(&events) {
            self.interface.dispatch(&e);
        }
        self.sync_control_points();
    }

    /// Replays a raw event stream against the interface (for driving the
    /// control-point drags the `edit` gesture exposes).
    pub fn run_events(&mut self, events: &[grandma_events::InputEvent]) {
        let mut dwell = DwellDetector::paper_default();
        for e in dwell.expand(events) {
            self.interface.dispatch(&e);
        }
        self.sync_control_points();
    }

    /// Ids of the views currently showing control points.
    pub fn control_views(&self) -> &[ViewId] {
        &self.control_views
    }

    /// Rebuilds the control-point views to match the scene's editing
    /// state — called after every interaction, so an `edit` gesture makes
    /// the picked object's control points appear (and deleting or
    /// re-editing updates them). §2: the points "can be dragged around
    /// directly (scaling the object accordingly)".
    fn sync_control_points(&mut self) {
        for view in self.control_views.drain(..) {
            self.interface.views_mut().remove(view);
        }
        let editing = self.scene.borrow().editing();
        if let Some(id) = editing {
            let control_points = self
                .scene
                .borrow()
                .get(id)
                .map(|o| o.shape.control_points())
                .unwrap_or_default();
            for (index, p) in control_points.iter().enumerate() {
                let view = self.interface.views_mut().add_view(
                    CONTROL_CLASS,
                    BBox::from_corners(
                        p.x - CONTROL_HALF,
                        p.y - CONTROL_HALF,
                        p.x + CONTROL_HALF,
                        p.y + CONTROL_HALF,
                    ),
                );
                self.interface.attach_view_handler(
                    view,
                    handler_ref(ControlPointHandler::new(
                        self.scene.clone(),
                        id,
                        index,
                        view,
                    )),
                );
                self.control_views.push(view);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    /// Finds a sample of `class` that the trained full classifier
    /// actually recognizes as that class (the classifier is ~98%
    /// accurate, so a fixed variant could land on a miss).
    fn well_classified_sample(gdp: &Gdp, class: &str) -> Gesture {
        let idx = gdp.class_names().iter().position(|&n| n == class).unwrap();
        for variant in 0..50 {
            let g = gdp.sample_gesture(class, variant);
            let filtered = grandma_core::PointFilter::filter_gesture(3.0, &g);
            if gdp.recognizer().classify_full(&filtered).class == idx {
                return g;
            }
        }
        panic!("no well-classified {class} sample in 50 variants");
    }

    fn build(eager: bool) -> Gdp {
        Gdp::build(GdpConfig {
            eager,
            training_per_class: 10,
            ..GdpConfig::default()
        })
        .expect("training succeeds")
    }

    #[test]
    fn rectangle_gesture_creates_a_rectangle() {
        let mut gdp = build(true);
        let g = well_classified_sample(&gdp, "rectangle");
        gdp.run_gesture(&g);
        let scene = gdp.scene().borrow();
        assert_eq!(scene.len(), 1);
        assert_eq!(scene.iter().next().unwrap().shape.kind(), "rect");
    }

    #[test]
    fn line_gesture_creates_a_line_with_endpoints() {
        let mut gdp = build(true);
        let g = well_classified_sample(&gdp, "line");
        let start = *g.first().unwrap();
        gdp.run_gesture(&g);
        let scene = gdp.scene().borrow();
        let obj = scene.iter().next().expect("line created");
        match &obj.shape {
            Shape::Line { p0, .. } => {
                assert!((p0.x - start.x).abs() < 1e-9);
                assert!((p0.y - start.y).abs() < 1e-9);
            }
            other => panic!("expected line, got {}", other.kind()),
        }
    }

    #[test]
    fn dot_gesture_creates_a_dot() {
        let mut gdp = build(true);
        let g = well_classified_sample(&gdp, "dot");
        gdp.run_gesture(&g);
        let scene = gdp.scene().borrow();
        assert_eq!(scene.iter().next().unwrap().shape.kind(), "dot");
    }

    #[test]
    fn manipulation_phase_rubberbands_the_rectangle() {
        let mut gdp = build(false); // force dwell transition for determinism
        let g = well_classified_sample(&gdp, "rectangle");
        // Pause mid-gesture so the transition happens, then drag to a
        // known second corner.
        gdp.run_gesture_then_drag(&g, &[(500.0, 400.0)], 300.0);
        let scene = gdp.scene().borrow();
        let obj = scene.iter().next().expect("rect created");
        match &obj.shape {
            Shape::Rect { c1, .. } => {
                assert_eq!((c1.x, c1.y), (500.0, 400.0));
            }
            other => panic!("expected rect, got {}", other.kind()),
        }
    }

    #[test]
    fn traces_record_the_interaction() {
        let mut gdp = build(true);
        let g = well_classified_sample(&gdp, "rectangle");
        gdp.run_gesture(&g);
        let traces = gdp.traces();
        assert_eq!(traces.len(), 1);
        let rect_idx = gdp.class_names().iter().position(|&n| n == "rectangle");
        assert_eq!(traces[0].class, rect_idx);
        assert!(traces[0].errors.is_empty(), "{:?}", traces[0].errors);
    }

    #[test]
    fn delete_gesture_removes_an_object() {
        let mut gdp = build(true);
        // Create a dot, then delete it with a delete gesture starting on
        // it.
        let dot = well_classified_sample(&gdp, "dot");
        gdp.run_gesture(&dot);
        assert_eq!(gdp.scene().borrow().len(), 1);
        let dot_pos = *dot.first().unwrap();
        let del = well_classified_sample(&gdp, "delete");
        // Translate the delete gesture so it starts on the dot.
        let offset_x = dot_pos.x - del.first().unwrap().x;
        let offset_y = dot_pos.y - del.first().unwrap().y;
        let del = del.transformed(&grandma_geom::Transform::translation(offset_x, offset_y));
        gdp.run_gesture(&del);
        assert_eq!(
            gdp.scene().borrow().len(),
            0,
            "traces: {:?}",
            gdp.traces()
                .iter()
                .map(|t| t.class_name.clone())
                .collect::<Vec<_>>()
        );
    }
}
