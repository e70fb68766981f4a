//! Ablation A4: the three phase-transition modes (§1).
//!
//! The same gesture is replayed through the GRANDMA gesture handler under
//! each transition policy:
//!
//! 1. mouse-up only (manipulation omitted),
//! 2. the 200 ms dwell timeout, and
//! 3. eager recognition,
//!
//! measuring when application feedback becomes available — in points seen
//! before the transition and in interaction milliseconds.
//!
//! Run: `cargo run -p grandma-bench --bin phase_modes`

use std::cell::RefCell;
use std::rc::Rc;

use grandma_bench::report;
use grandma_core::{EagerConfig, EagerRecognizer, FeatureMask};
use grandma_events::{gesture_events, gesture_events_with_hold, Button, DwellDetector};
use grandma_synth::datasets;
use grandma_toolkit::{
    GestureClass, GestureHandler, GestureHandlerConfig, HandlerRef, InteractionConfig, Interface,
    PhaseTransition,
};

fn main() {
    let data = datasets::eight_way(0xa4a4, 10, 10);
    let (recognizer, _) =
        EagerRecognizer::train(&data.training, &FeatureMask::all(), &EagerConfig::default())
            .expect("training succeeds");
    let recognizer = Rc::new(recognizer);

    let run_mode = |eager: bool, hold: bool| -> (f64, f64, usize) {
        let mut interface = Interface::new();
        let handler = Rc::new(RefCell::new(GestureHandler::new(
            recognizer.clone(),
            data.class_names
                .iter()
                .map(|n| GestureClass::named(n))
                .collect(),
            GestureHandlerConfig {
                interaction: InteractionConfig {
                    eager,
                    ..InteractionConfig::default()
                },
                ..GestureHandlerConfig::default()
            },
        )));
        let dyn_ref: HandlerRef = handler.clone();
        interface.attach_root_handler(dyn_ref);
        for labeled in &data.testing {
            let g = &labeled.gesture;
            let events = if hold {
                // The user pauses just past the corner to hand over to
                // manipulation.
                let at = labeled.min_points.unwrap_or(g.len()).min(g.len() - 1);
                gesture_events_with_hold(g, Button::Left, Some((at, 250.0)))
            } else {
                gesture_events(g, Button::Left)
            };
            let mut dwell = DwellDetector::paper_default();
            for e in dwell.expand(&events) {
                interface.dispatch(&e);
            }
        }
        let handler = handler.borrow();
        let n = handler.traces().len().max(1) as f64;
        let avg_points = handler
            .traces()
            .iter()
            .map(|t| t.points_at_recognition as f64)
            .sum::<f64>()
            / n;
        let avg_fraction = handler
            .traces()
            .iter()
            .map(|t| t.points_at_recognition as f64 / t.total_points.max(1) as f64)
            .sum::<f64>()
            / n;
        let manipulable = handler
            .traces()
            .iter()
            .filter(|t| t.transition != PhaseTransition::MouseUp)
            .count();
        (avg_points, avg_fraction, manipulable)
    };

    println!("== §1's three phase-transition modes ==\n");
    let mut rows = Vec::new();
    for (label, eager, hold) in [
        ("1: mouse-up only", false, false),
        ("2: 200 ms dwell (user pauses past the corner)", false, true),
        ("3: eager recognition", true, false),
    ] {
        let (points, fraction, manipulable) = run_mode(eager, hold);
        rows.push(vec![
            label.to_string(),
            format!("{points:.1}"),
            format!("{:.1}%", 100.0 * fraction),
            format!("{manipulable}/{}", data.testing.len()),
        ]);
    }
    println!(
        "{}",
        report::table(
            &[
                "transition mode",
                "points before feedback",
                "fraction of gesture",
                "interactions with manipulation phase"
            ],
            &rows
        )
    );
    println!(
        "expected shape: mouse-up sees 100% of the gesture and allows no\n\
         manipulation; the dwell pause transitions mid-gesture at the cost of a\n\
         250 ms stall; eager recognition transitions mid-gesture with no stall —\n\
         \"a smooth and natural interaction\"."
    );
}
