//! §5's compute-cost paragraph.
//!
//! "A fixed amount of computation needs to occur on each mouse point:
//! first the feature vector must be updated (taking 0.5 msec on a DEC
//! MicroVAX II), and then the vector must be classified by the AUC (taking
//! 0.27 msec per class, or 6 msec in the case of GDP)."
//!
//! This binary measures the same two quantities on the current machine,
//! plus the per-class scaling of AUC evaluation and the cost of the
//! classification that commits the phase transition. Absolute numbers are of
//! course far smaller than a 1985 MicroVAX's; the reproduced *shape* is
//! (a) constant per-point feature cost independent of gesture length and
//! (b) AUC cost linear in the number of classes.
//!
//! Run: `cargo run -p grandma-bench --bin timing_table --release`

use std::time::Instant;

use grandma_bench::report;
use grandma_core::{EagerConfig, EagerRecognizer, FeatureExtractor, FeatureMask};
use grandma_geom::{Gesture, Point};
use grandma_linalg::Vector;
use grandma_synth::datasets;

fn main() {
    // (a) Per-point feature update cost, for increasing gesture lengths —
    // flat if the update really is O(1) per point.
    let mut rows = Vec::new();
    for &len in &[100usize, 1_000, 10_000, 100_000] {
        let points: Vec<Point> = (0..len)
            .map(|i| {
                let s = i as f64;
                Point::new(s.sin() * 50.0 + s * 0.1, s.cos() * 50.0, s * 10.0)
            })
            .collect();
        let start = Instant::now();
        let mut fx = FeatureExtractor::new();
        for &p in &points {
            fx.update(p);
        }
        let total = start.elapsed();
        std::hint::black_box(fx.features());
        rows.push(vec![
            len.to_string(),
            format!("{:.1} ns", total.as_nanos() as f64 / len as f64),
        ]);
    }
    println!("== per-point feature update (paper: 0.5 ms/point on a MicroVAX II) ==\n");
    println!(
        "{}",
        report::table(&["gesture points", "cost per point"], &rows)
    );

    // (b) AUC evaluation cost vs class count: every eight-way subset size
    // (their AUC class counts mostly fall between multiples of the
    // classifier's block width) and the GDP recognizer (21 AUC classes).
    let mut rows = Vec::new();
    let eight_way = datasets::eight_way(0x7131, 10, 0);
    let mut sets: Vec<(String, Vec<Vec<Gesture>>)> = (2..=8usize)
        .map(|classes| {
            let training = eight_way.training.iter().take(classes).cloned().collect();
            (format!("eight-way {classes}"), training)
        })
        .collect();
    sets.push((
        "GDP 11".to_string(),
        datasets::gdp(0x7124_1a11, 10, 0).training,
    ));
    for (name, training) in sets {
        let (rec, _) =
            EagerRecognizer::train(&training, &FeatureMask::all(), &EagerConfig::default())
                .expect("training succeeds");
        // Probe with mid-gesture prefixes of the training examples, so
        // the verdicts vary the way they do on a live stroke.
        let probes: Vec<Vector> = training
            .iter()
            .flatten()
            .filter_map(|g| g.subgesture(g.len() / 2 + 1))
            .map(|prefix| FeatureExtractor::extract(&prefix, &FeatureMask::all()))
            .collect();
        let auc_classes = rec.auc().kinds().len();
        let per_eval = median_ns_per_call(|i| {
            let features = std::hint::black_box(&probes[i % probes.len()]);
            std::hint::black_box(rec.auc().is_unambiguous(features));
        });
        rows.push(vec![
            name,
            auc_classes.to_string(),
            format!("{:.0} ns", per_eval),
            format!("{:.1} ns", per_eval / auc_classes as f64),
        ]);
    }
    println!("== AUC evaluation vs class count (paper: 0.27 ms/class; ~6 ms for GDP) ==\n");
    println!(
        "{}",
        report::table(
            &[
                "training set",
                "AUC classes",
                "per evaluation",
                "per AUC class"
            ],
            &rows
        )
    );
    println!(
        "expected shape: per-point feature cost flat in gesture length; AUC cost\n\
         linear in the class count, roughly in steps of the classifier's block width\n\
         (4 classes): a partly filled block costs as much as a full one.\n"
    );

    // (c) The phase transition's classification on the GDP recognizer, at
    // the same mid-gesture prefixes. An eager commit classifies the
    // features its AUC check just extracted and computes P̂ only under a
    // rejection threshold; the first row is the commit that re-extracted
    // them and always computed P̂.
    let training = datasets::gdp(0x7124_1a11, 10, 0).training;
    let mask = FeatureMask::all();
    let (rec, _) = EagerRecognizer::train(&training, &mask, &EagerConfig::default())
        .expect("training succeeds");
    let classifier = rec.full_classifier();
    let extractors: Vec<FeatureExtractor> = training
        .iter()
        .flatten()
        .map(|g| {
            let mut fx = FeatureExtractor::new();
            for &p in &g.points()[..g.len() / 2 + 1] {
                fx.update(p);
            }
            fx
        })
        .collect();
    let probes: Vec<Vec<f64>> = extractors
        .iter()
        .map(|fx| fx.masked_features(&mask).as_slice().to_vec())
        .collect();
    let mut features = vec![0.0; mask.count()];
    let mut evaluations = vec![0.0; classifier.num_classes()];
    let before = median_ns_per_call(|i| {
        let fx = std::hint::black_box(&extractors[i % extractors.len()]);
        fx.masked_features_into(&mask, &mut features);
        std::hint::black_box(classifier.classify_slice_checked(&features, &mut evaluations));
    });
    let no_threshold = median_ns_per_call(|i| {
        let features = std::hint::black_box(&probes[i % probes.len()]);
        std::hint::black_box(classifier.argmax_checked(features, &mut evaluations));
    });
    let threshold = median_ns_per_call(|i| {
        let features = std::hint::black_box(&probes[i % probes.len()]);
        let class = classifier.argmax_checked(features, &mut evaluations);
        std::hint::black_box(class.map(|c| classifier.probability(&evaluations, c)));
    });
    let rows: Vec<Vec<String>> = [
        ("re-extract + argmax + P (former eager commit)", before),
        ("argmax, no threshold (eager commit)", no_threshold),
        ("argmax + P, min_probability set", threshold),
    ]
    .into_iter()
    .map(|(commit, ns)| vec![commit.to_string(), format!("{ns:.0} ns")])
    .collect();
    println!(
        "== phase transition: commit classification, GDP ({} classes) ==\n",
        classifier.num_classes()
    );
    println!("{}", report::table(&["commit", "per commit"], &rows));
    println!("P: the probability estimate 1 / sum_j exp(v_j - v_max), one exp per class.");
}

/// Nanoseconds per `call`, the median of seven timed repetitions of
/// 40 000 calls: other load on the host moves single repetitions by up
/// to 2x. `call` gets the iteration index to pick its probe.
fn median_ns_per_call(mut call: impl FnMut(usize)) -> f64 {
    let iterations = 40_000;
    let mut repetitions: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iterations {
                call(i);
            }
            start.elapsed().as_nanos() as f64 / iterations as f64
        })
        .collect();
    repetitions.sort_by(f64::total_cmp);
    repetitions[repetitions.len() / 2]
}
