//! Cross-crate interaction tests for the paper's core interface claims:
//!
//! * §3.1 — gesture handlers and direct-manipulation handlers coexist in
//!   one interface: views respond to drags while the background responds
//!   to gestures, and one view can carry both on different buttons.
//! * §1/§3.2 — the two-phase interaction: all three transition triggers,
//!   the paper's Figure 1 "move text" argument (the variable tail of a
//!   move gesture becomes manipulation, not gesture).

use std::cell::RefCell;
use std::rc::Rc;

use grandma::core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma::events::{gesture_events, Button, DwellDetector, EventKind, InputEvent};
use grandma::synth::datasets;
use grandma::toolkit::{
    DragHandler, GestureClass, GestureHandler, GestureHandlerConfig, HandlerRef, InteractionConfig,
    Interface, PhaseTransition,
};
use grandma_geom::{BBox, Gesture, Transform};

fn recognizer() -> Rc<EagerRecognizer> {
    let data = datasets::eight_way(0x2b2b, 10, 0);
    let (rec, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    Rc::new(rec)
}

fn gesture_handler(eager: bool) -> Rc<RefCell<GestureHandler>> {
    let names = ["dr", "dl", "rd", "ld", "ru", "lu", "ur", "ul"];
    Rc::new(RefCell::new(GestureHandler::new(
        recognizer(),
        names.iter().map(|n| GestureClass::named(n)).collect(),
        GestureHandlerConfig {
            interaction: InteractionConfig {
                eager,
                ..InteractionConfig::default()
            },
            ..GestureHandlerConfig::default()
        },
    )))
}

fn replay(interface: &mut Interface, events: &[InputEvent]) {
    let mut dwell = DwellDetector::paper_default();
    for e in dwell.expand(events) {
        interface.dispatch(&e);
    }
}

fn sample(class: &str) -> Gesture {
    let data = datasets::eight_way(0x2b2c, 0, 20);
    let idx = data.class_names.iter().position(|&n| n == class).unwrap();
    data.testing
        .iter()
        .find(|l| l.class == idx)
        .expect("sample exists")
        .gesture
        .clone()
}

#[test]
fn gestures_on_background_drags_on_views_coexist() {
    // §3.1: "a mouse press on a shape causes it to be dragged, while a
    // mouse press over the background window is interpreted as gesture" —
    // the GEdit pattern, expressed with handler lists.
    let mut interface = Interface::new();
    let view = interface
        .views_mut()
        .add_view("Shape", BBox::from_corners(500.0, 500.0, 540.0, 540.0));
    interface.attach_class_handler(
        "Shape",
        Rc::new(RefCell::new(DragHandler::new(Button::Left))),
    );
    let gh = gesture_handler(true);
    let gh_dyn: HandlerRef = gh.clone();
    interface.attach_root_handler(gh_dyn);

    // 1. Drag the shape: starts on the view, so the drag handler wins.
    let drag_events = [
        InputEvent::new(
            EventKind::MouseDown {
                button: Button::Left,
            },
            520.0,
            520.0,
            0.0,
        ),
        InputEvent::new(EventKind::MouseMove, 560.0, 520.0, 10.0),
        InputEvent::new(
            EventKind::MouseUp {
                button: Button::Left,
            },
            560.0,
            520.0,
            20.0,
        ),
    ];
    replay(&mut interface, &drag_events);
    assert_eq!(
        interface.views().get(view).unwrap().bounds.min_x,
        540.0,
        "the view must have been dragged"
    );
    assert!(gh.borrow().traces().is_empty(), "no gesture was made");

    // 2. Gesture over the background: the root gesture handler wins.
    let g = sample("ru"); // starts near the origin, far from the view
    replay(&mut interface, &gesture_events(&g, Button::Left));
    assert_eq!(gh.borrow().traces().len(), 1, "background press gestures");
    assert_eq!(
        interface.views().get(view).unwrap().bounds.min_x,
        540.0,
        "the view must not move during a gesture"
    );
}

#[test]
fn same_view_gesture_and_drag_on_different_buttons() {
    // §3.1: "A single view (or view class) may respond to both gesture and
    // direct manipulation (say, via different mouse buttons)".
    let mut interface = Interface::new();
    let view = interface
        .views_mut()
        .add_view("Shape", BBox::from_corners(0.0, -100.0, 200.0, 100.0));
    interface.attach_view_handler(view, Rc::new(RefCell::new(DragHandler::new(Button::Right))));
    let gh = Rc::new(RefCell::new(GestureHandler::new(
        recognizer(),
        ["dr", "dl", "rd", "ld", "ru", "lu", "ur", "ul"]
            .iter()
            .map(|n| GestureClass::named(n))
            .collect(),
        GestureHandlerConfig {
            button: Button::Left,
            over_background: false,
            ..GestureHandlerConfig::default()
        },
    )));
    let gh_dyn: HandlerRef = gh.clone();
    interface.attach_view_handler(view, gh_dyn);

    // Left-button stroke on the view: gesture.
    let g = sample("ru").transformed(&Transform::translation(50.0, 0.0));
    replay(&mut interface, &gesture_events(&g, Button::Left));
    assert_eq!(gh.borrow().traces().len(), 1);

    // Right-button press on the view: drag.
    let before = interface.views().get(view).unwrap().bounds.min_x;
    let drag = [
        InputEvent::new(
            EventKind::MouseDown {
                button: Button::Right,
            },
            50.0,
            0.0,
            5000.0,
        ),
        InputEvent::new(EventKind::MouseMove, 80.0, 0.0, 5010.0),
        InputEvent::new(
            EventKind::MouseUp {
                button: Button::Right,
            },
            80.0,
            0.0,
            5020.0,
        ),
    ];
    replay(&mut interface, &drag);
    assert_eq!(
        interface.views().get(view).unwrap().bounds.min_x,
        before + 30.0
    );
    assert_eq!(gh.borrow().traces().len(), 1, "the drag is not a gesture");
}

#[test]
fn all_three_transition_triggers_work_in_one_interface() {
    let mut interface = Interface::new();
    let gh = gesture_handler(true);
    let gh_dyn: HandlerRef = gh.clone();
    interface.attach_root_handler(gh_dyn);

    // 1. Eager: a full gesture fires mid-stroke.
    replay(&mut interface, &gesture_events(&sample("ru"), Button::Left));
    // 2. Mouse-up: a gesture too short for eagerness (its ambiguous
    //    prefix) classifies at release.
    let prefix = sample("rd").subgesture(6).unwrap();
    replay(&mut interface, &gesture_events(&prefix, Button::Left));
    // 3. Timeout: hold mid-gesture.
    let g = sample("dl");
    let events = grandma::events::gesture_events_with_hold(&g, Button::Left, Some((4, 400.0)));
    replay(&mut interface, &events);

    let gh = gh.borrow();
    let transitions: Vec<PhaseTransition> = gh.traces().iter().map(|t| t.transition).collect();
    assert_eq!(transitions.len(), 3);
    assert_eq!(transitions[0], PhaseTransition::Eager);
    assert_eq!(transitions[1], PhaseTransition::MouseUp);
    assert_eq!(transitions[2], PhaseTransition::Timeout);
}

#[test]
fn variable_tail_is_manipulation_not_gesture() {
    // §6's insight via Figure 1: in a two-phase interaction the variable
    // "tail" is manipulation, so wildly different tails after recognition
    // must not change the classification.
    let mut interface = Interface::new();
    let gh = gesture_handler(true);
    let gh_dyn: HandlerRef = gh.clone();
    interface.attach_root_handler(gh_dyn);

    let g = sample("ru");
    for (i, tail) in [
        (0usize, (300.0, 0.0)),
        (1, (-200.0, 500.0)),
        (2, (50.0, -400.0)),
    ] {
        let _ = i;
        let mut events = gesture_events(&g, Button::Left);
        let up = events.pop().unwrap();
        let t = up.t;
        // A long, erratic tail after the gesture body.
        events.push(InputEvent::new(
            EventKind::MouseMove,
            tail.0,
            tail.1,
            t + 10.0,
        ));
        events.push(InputEvent::new(
            EventKind::MouseUp {
                button: Button::Left,
            },
            tail.0,
            tail.1,
            t + 20.0,
        ));
        replay(&mut interface, &events);
    }
    let gh = gh.borrow();
    assert_eq!(gh.traces().len(), 3);
    let classes: Vec<&str> = gh.traces().iter().map(|t| t.class_name.as_str()).collect();
    assert!(
        classes.iter().all(|&c| c == classes[0]),
        "the manipulation tail changed the classification: {classes:?}"
    );
    assert!(
        gh.traces()
            .iter()
            .all(|t| t.transition == PhaseTransition::Eager),
        "all three should have been eagerly recognized before the tail"
    );
}

#[test]
fn jiggle_points_are_filtered_during_collection() {
    let mut interface = Interface::new();
    let gh = gesture_handler(false);
    let gh_dyn: HandlerRef = gh.clone();
    interface.attach_root_handler(gh_dyn);

    // Build a gesture with every point duplicated at sub-threshold
    // offsets; collection must keep only the real points.
    let g = sample("ur");
    let mut events = vec![InputEvent::new(
        EventKind::MouseDown {
            button: Button::Left,
        },
        g.points()[0].x,
        g.points()[0].y,
        g.points()[0].t,
    )];
    for p in &g.points()[1..] {
        events.push(InputEvent::new(EventKind::MouseMove, p.x, p.y, p.t));
        events.push(InputEvent::new(
            EventKind::MouseMove,
            p.x + 0.5,
            p.y,
            p.t + 1.0,
        ));
    }
    let last = g.last().unwrap();
    events.push(InputEvent::new(
        EventKind::MouseUp {
            button: Button::Left,
        },
        last.x,
        last.y,
        last.t + 5.0,
    ));
    replay(&mut interface, &events);
    let gh = gh.borrow();
    let trace = &gh.traces()[0];
    assert!(
        trace.points_at_recognition <= g.len(),
        "duplicated jiggle points must not inflate the collected gesture \
         ({} collected vs {} real)",
        trace.points_at_recognition,
        g.len()
    );
}

#[test]
fn handler_order_view_then_class_then_root() {
    // A view handler that ignores everything still sees events first;
    // consumption order is view -> class -> root.
    use grandma::toolkit::{Ctx, EventHandler, HandlerResult, ViewStore};
    struct Prober {
        seen: Rc<RefCell<Vec<&'static str>>>,
        tag: &'static str,
        consume: bool,
    }
    impl EventHandler for Prober {
        fn name(&self) -> &'static str {
            self.tag
        }
        fn wants(&self, _e: &InputEvent, _t: Option<usize>, _v: &ViewStore) -> bool {
            true
        }
        fn handle(&mut self, _e: &InputEvent, _ctx: &mut Ctx<'_>) -> HandlerResult {
            self.seen.borrow_mut().push(self.tag);
            if self.consume {
                HandlerResult::Consumed
            } else {
                HandlerResult::Ignored
            }
        }
    }
    let seen = Rc::new(RefCell::new(Vec::new()));
    let mut interface = Interface::new();
    let view = interface
        .views_mut()
        .add_view("Shape", BBox::from_corners(0.0, 0.0, 10.0, 10.0));
    interface.attach_root_handler(Rc::new(RefCell::new(Prober {
        seen: seen.clone(),
        tag: "root",
        consume: true,
    })));
    interface.attach_class_handler(
        "Shape",
        Rc::new(RefCell::new(Prober {
            seen: seen.clone(),
            tag: "class",
            consume: false,
        })),
    );
    interface.attach_view_handler(
        view,
        Rc::new(RefCell::new(Prober {
            seen: seen.clone(),
            tag: "view",
            consume: false,
        })),
    );
    interface.dispatch(&InputEvent::new(
        EventKind::MouseDown {
            button: Button::Left,
        },
        5.0,
        5.0,
        0.0,
    ));
    assert_eq!(&*seen.borrow(), &["view", "class", "root"]);
}

#[test]
fn enclosed_attribute_lists_models_inside_the_gesture() {
    // §3.2: gestural attributes are lazily bound for the semantics; the
    // <enclosed> attribute carries the models of every view fully inside
    // the gesture's extent (GDP's group operand, expressed over views).
    use grandma::sem::{obj_ref, Expr, GestureSemantics, Recorder, Value};

    let mut interface = Interface::new();
    // Two small views inside the gesture area, one outside.
    let inside_a = interface
        .views_mut()
        .add_view("Shape", BBox::from_corners(10.0, 10.0, 20.0, 20.0));
    let inside_b = interface
        .views_mut()
        .add_view("Shape", BBox::from_corners(30.0, 30.0, 40.0, 40.0));
    let outside = interface
        .views_mut()
        .add_view("Shape", BBox::from_corners(500.0, 500.0, 520.0, 520.0));
    for v in [inside_a, inside_b, outside] {
        interface.views_mut().set_model(v, obj_ref(Recorder::new()));
    }
    let app = obj_ref(Recorder::new());
    interface.env_mut().bind("view", Value::Obj(app));

    // A gesture class whose recog stores <enclosed> into a variable.
    let semantics = GestureSemantics {
        recog: Expr::assign("captured", Expr::attr("enclosed")),
        manip: Expr::Nil,
        done: Expr::Nil,
    };
    let gh = Rc::new(RefCell::new(GestureHandler::new(
        recognizer(),
        {
            let mut classes: Vec<GestureClass> = ["dr", "dl", "rd", "ld", "ru", "lu", "ur", "ul"]
                .iter()
                .map(|n| GestureClass::with_semantics(n, semantics.clone()))
                .collect();
            classes.truncate(8);
            classes
        },
        GestureHandlerConfig {
            // Recognize at mouse-up so the gesture's full extent (the
            // whole lasso) defines <enclosed>, as in GDP's group.
            interaction: InteractionConfig {
                eager: false,
                ..InteractionConfig::default()
            },
            ..GestureHandlerConfig::default()
        },
    )));
    let gh_dyn: HandlerRef = gh.clone();
    interface.attach_root_handler(gh_dyn);

    // A big gesture whose bounding box covers both inside views. Scale a
    // sample so its bbox spans (0,0)..(60,60)-ish.
    let g = sample("ru");
    let b = g.bbox();
    let scale = 70.0 / b.diagonal();
    let g = g.transformed(&Transform::scale(scale));
    let b = g.bbox();
    let g = g.transformed(&Transform::translation(-b.min_x - 5.0, -b.min_y - 5.0));
    replay(&mut interface, &gesture_events(&g, Button::Left));

    let captured = interface.env().lookup("captured").expect("recog ran");
    let list = captured.as_list().expect("enclosed is a list");
    assert_eq!(list.len(), 2, "exactly the two inside views' models");
}
