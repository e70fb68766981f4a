//! The interaction engine on its own, without an adapter: step sequences,
//! the fault budget, grab-break teardown, and the commit classification
//! on the GDP recognizer.

use grandma_core::interaction::{
    DrainOutcome, InteractionConfig, InteractionEngine, InteractionOutcome, Phase, PhaseTransition,
    Step,
};
use grandma_core::{EagerConfig, EagerRecognizer, FeatureExtractor, FeatureMask};
use grandma_events::{gesture_events, Button, EventKind, InputEvent, StreamFault};
use grandma_geom::{Gesture, Point};
use grandma_synth::datasets;

/// Right-then-up (class 0) or right-then-down (class 1).
fn l_shape(sign: f64, wiggle: f64) -> Gesture {
    let mut pts = Vec::new();
    for i in 0..10 {
        pts.push(Point::new(i as f64 * 5.0 + wiggle, 0.0, i as f64 * 10.0));
    }
    for i in 1..10 {
        pts.push(Point::new(
            45.0 + wiggle,
            sign * i as f64 * 5.0,
            90.0 + i as f64 * 10.0,
        ));
    }
    Gesture::from_points(pts)
}

fn recognizer() -> EagerRecognizer {
    let up = (0..10).map(|e| l_shape(1.0, e as f64 * 0.3)).collect();
    let down = (0..10).map(|e| l_shape(-1.0, e as f64 * 0.3)).collect();
    let (rec, _) =
        EagerRecognizer::train(&[up, down], &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    rec
}

fn run(rec: &EagerRecognizer, engine: &mut InteractionEngine, events: &[InputEvent]) -> Vec<Step> {
    let mut steps = Vec::new();
    for &e in events {
        engine.step(rec, e, &mut steps);
    }
    steps
}

fn outcomes(steps: &[Step]) -> Vec<InteractionOutcome> {
    steps
        .iter()
        .filter_map(|s| match s {
            Step::Outcome { outcome, .. } => Some(*outcome),
            _ => None,
        })
        .collect()
}

#[test]
fn mouse_up_commit_classifies_then_ends() {
    let rec = recognizer();
    let mut engine = InteractionEngine::new(InteractionConfig {
        eager: false,
        ..InteractionConfig::default()
    });
    let events = gesture_events(&l_shape(-1.0, 0.5), Button::Left);
    let steps = run(&rec, &mut engine, &events);
    let points = engine.gesture().len() as u32;
    assert_eq!(
        steps,
        vec![
            Step::Classified {
                transition: PhaseTransition::MouseUp,
                class: Some(1),
                points,
            },
            Step::Outcome {
                outcome: InteractionOutcome::Recognized,
                class: Some(1),
                total_points: points,
                faults: 0,
            },
        ]
    );
    assert!(!engine.in_progress());
}

#[test]
fn eager_commit_manipulates_until_mouse_up() {
    let rec = recognizer();
    let mut engine = InteractionEngine::new(InteractionConfig::default());
    let events = gesture_events(&l_shape(1.0, 0.5), Button::Left);
    let steps = run(&rec, &mut engine, &events);
    let Some(Step::Classified {
        transition: PhaseTransition::Eager,
        class: Some(0),
        points,
    }) = steps.first().cloned()
    else {
        panic!("first step must be an eager commit: {steps:?}");
    };
    let moves = steps
        .iter()
        .filter(|s| matches!(s, Step::Manipulate { .. }))
        .count() as u32;
    assert!(moves > 0);
    assert_eq!(
        steps.last(),
        Some(&Step::Outcome {
            outcome: InteractionOutcome::Manipulated,
            class: Some(0),
            total_points: points + moves,
            faults: 0,
        })
    );
}

#[test]
fn fault_budget_drains_and_idle_charges_are_dropped() {
    let rec = recognizer();
    let mut engine = InteractionEngine::new(InteractionConfig {
        fault_budget: 1,
        ..InteractionConfig::default()
    });
    engine.charge(5);
    assert_eq!(engine.phase(), Phase::Idle, "nothing to charge while idle");
    let events = gesture_events(&l_shape(1.0, 0.5), Button::Left);
    let mut steps = Vec::new();
    engine.step(&rec, events[0], &mut steps);
    let duplicate = InputEvent::new(
        EventKind::MouseDown {
            button: Button::Left,
        },
        1.0,
        1.0,
        1.0,
    );
    engine.step(&rec, duplicate, &mut steps);
    assert_eq!(
        steps,
        vec![Step::Fault(StreamFault::DuplicateMouseDown { t: 1.0 })]
    );
    assert_eq!(engine.phase(), Phase::Collecting, "one fault is in budget");
    engine.charge(1);
    assert_eq!(
        engine.phase(),
        Phase::Draining {
            outcome: DrainOutcome::Cancelled,
            class: None,
            total_points: 1,
        }
    );
    steps.clear();
    engine.step(&rec, events[1], &mut steps);
    assert!(steps.is_empty(), "a drain swallows events");
    engine.step(&rec, *events.last().expect("up"), &mut steps);
    assert_eq!(
        steps,
        vec![Step::Outcome {
            outcome: InteractionOutcome::Cancelled,
            class: None,
            total_points: 1,
            faults: 2,
        }]
    );
}

#[test]
fn grab_break_ends_any_interaction_at_once() {
    let rec = recognizer();
    let events = gesture_events(&l_shape(1.0, 0.5), Button::Left);
    let grab_break = InputEvent::new(EventKind::GrabBreak, 0.0, 0.0, 1e6);
    let mut engine = InteractionEngine::new(InteractionConfig::default());
    assert!(run(&rec, &mut engine, &[grab_break]).is_empty());
    for cut in 1..events.len() - 1 {
        engine.reset();
        let mut stream = events[..cut].to_vec();
        stream.push(grab_break);
        let steps = run(&rec, &mut engine, &stream);
        assert_eq!(
            outcomes(&steps),
            vec![InteractionOutcome::Cancelled],
            "cut {cut}"
        );
        assert!(!engine.in_progress());
    }
}

/// The GDP recognizer the benchmark serves, and unseen GDP gestures.
fn gdp() -> (EagerRecognizer, Vec<Gesture>) {
    let data = datasets::gdp(0x7124_1a11, 10, 0);
    let unseen = datasets::gdp(0x7e57_0001, 0, 4);
    let (rec, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    (rec, unseen.testing.into_iter().map(|t| t.gesture).collect())
}

/// One interaction per gesture for each phase transition: eager on,
/// eager off (a mouse-up commit), and eager off with a dwell timeout
/// delivered halfway through the stroke.
fn gdp_streams(gestures: &[Gesture]) -> Vec<(bool, Vec<InputEvent>)> {
    let mut streams = Vec::new();
    for g in gestures {
        let events = gesture_events(g, Button::Left);
        streams.push((true, events.clone()));
        streams.push((false, events.clone()));
        let mid = events.len() / 2;
        let at = events[mid];
        let mut held = events;
        held.insert(
            mid + 1,
            InputEvent::new(EventKind::Timeout, at.x, at.y, at.t + 200.0),
        );
        streams.push((false, held));
    }
    streams
}

/// One `Step::Classified` and the checked classification (class, P̂) of
/// a fresh extraction of the gesture the engine had collected then.
#[derive(Debug)]
struct Commit {
    transition: PhaseTransition,
    class: Option<u16>,
    points: u32,
    fresh: Option<(usize, f64)>,
}

fn commits(rec: &EagerRecognizer, config: InteractionConfig, events: &[InputEvent]) -> Vec<Commit> {
    let classifier = rec.full_classifier();
    let mut evaluations = vec![0.0; classifier.num_classes()];
    let mut engine = InteractionEngine::new(config);
    let mut steps = Vec::new();
    let mut out = Vec::new();
    for &event in events {
        steps.clear();
        engine.step(rec, event, &mut steps);
        for step in &steps {
            if let Step::Classified {
                transition,
                class,
                points,
            } = *step
            {
                let features = FeatureExtractor::extract(engine.gesture(), classifier.mask());
                out.push(Commit {
                    transition,
                    class,
                    points,
                    fresh: classifier.classify_slice_checked(features.as_slice(), &mut evaluations),
                });
            }
        }
    }
    out
}

#[test]
fn every_commit_classifies_exactly_the_collected_gesture() {
    let (rec, gestures) = gdp();
    let mut seen = [0usize; 3];
    for (eager, events) in gdp_streams(&gestures) {
        let config = InteractionConfig {
            eager,
            min_probability: None,
            ..InteractionConfig::default()
        };
        let found = commits(&rec, config, &events);
        assert_eq!(found.len(), 1, "one commit per interaction: {found:?}");
        for commit in found {
            assert_eq!(
                commit.class,
                commit.fresh.map(|(class, _)| class as u16),
                "{commit:?}"
            );
            seen[match commit.transition {
                PhaseTransition::Eager => 0,
                PhaseTransition::Timeout => 1,
                PhaseTransition::MouseUp => 2,
                PhaseTransition::Aborted => unreachable!("no commit is aborted"),
            }] += 1;
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "eager/timeout/mouse-up commits: {seen:?}"
    );
}

/// The neighbouring doubles of a positive finite `p` (bit-adjacent).
fn neighbours(p: f64) -> (f64, f64) {
    assert!(p.is_finite() && p > 0.0, "P̂ = {p}");
    (
        f64::from_bits(p.to_bits() - 1),
        f64::from_bits(p.to_bits() + 1),
    )
}

#[test]
fn rejection_flips_exactly_at_the_reported_probability() {
    let (rec, gestures) = gdp();
    let mut checked = 0;
    for (eager, events) in gdp_streams(&gestures) {
        let config = |min_probability| InteractionConfig {
            eager,
            min_probability,
            ..InteractionConfig::default()
        };
        let [reference] = commits(&rec, config(None), &events)
            .try_into()
            .expect("one commit");
        let Some((class, p)) = reference.fresh else {
            continue;
        };
        let (below, above) = neighbours(p);
        for (min, accepted) in [(below, true), (p, true), (above, false)] {
            let [commit] = commits(&rec, config(Some(min)), &events)
                .try_into()
                .expect("one commit");
            assert_eq!(commit.transition, reference.transition);
            assert_eq!(commit.points, reference.points);
            assert_eq!(
                commit.class,
                accepted.then_some(class as u16),
                "P̂ = {p}, min_probability = {min}"
            );
        }
        checked += 1;
    }
    assert!(checked > 100, "{checked} thresholded commits");
}
