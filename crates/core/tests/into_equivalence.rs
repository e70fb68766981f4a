//! The `_into`/slice hot-path APIs must agree with their allocating
//! counterparts: same fold order ⇒ bit-exact where the arithmetic is
//! identical, tolerance-checked where an algebraic identity rearranges it
//! (the Mahalanobis split into quadratic form + per-class dot).

use grandma_core::{
    Classifier, EagerConfig, EagerRecognizer, FeatureExtractor, FeatureMask, LinearClassifier,
    FEATURE_COUNT,
};
use grandma_geom::{Gesture, Point};
use grandma_linalg::{dot_slices, Matrix, Vector, Workspace};
use grandma_synth::datasets;

fn two_segment(first: (f64, f64), second: (f64, f64), jiggle: f64) -> Gesture {
    let mut pts = Vec::new();
    let (mut x, mut y) = (0.0, 0.0);
    for i in 0..10 {
        pts.push(Point::new(x + jiggle * (i % 2) as f64, y, i as f64 * 10.0));
        x += first.0 * 5.0;
        y += first.1 * 5.0;
    }
    for i in 0..9 {
        x += second.0 * 5.0;
        y += second.1 * 5.0;
        pts.push(Point::new(
            x,
            y + jiggle * (i % 2) as f64,
            100.0 + i as f64 * 10.0,
        ));
    }
    Gesture::from_points(pts)
}

fn sparse_mask(indices: &[usize]) -> FeatureMask {
    let mut m = FeatureMask::none();
    for &i in indices {
        m.enable(i);
    }
    m
}

fn four_class_training() -> Vec<Vec<Gesture>> {
    let dirs = [
        ((1.0, 0.0), (0.0, 1.0)),
        ((1.0, 0.0), (0.0, -1.0)),
        ((0.0, 1.0), (1.0, 0.0)),
        ((0.0, 1.0), (-1.0, 0.0)),
    ];
    dirs.iter()
        .map(|&(a, b)| {
            (0..10)
                .map(|e| two_segment(a, b, 0.1 + e as f64 * 0.04))
                .collect()
        })
        .collect()
}

/// Feature vectors at several prefix lengths of several gestures —
/// a spread of realistic inputs for the equivalence checks below.
fn probe_features(mask: &FeatureMask) -> Vec<grandma_linalg::Vector> {
    let mut out = Vec::new();
    for &(a, b) in &[((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (-1.0, 0.0))] {
        let g = two_segment(a, b, 0.27);
        for len in [3, 7, 12, g.len()] {
            let prefix = g.subgesture(len).unwrap();
            out.push(FeatureExtractor::extract(&prefix, mask));
        }
    }
    out
}

#[test]
fn evaluate_into_matches_evaluate_exactly() {
    let mask = FeatureMask::all();
    let full = Classifier::train(&four_class_training(), &mask).unwrap();
    let linear = full.linear();
    let mut buf = vec![0.0; linear.num_classes()];
    for features in probe_features(&mask) {
        linear.evaluate_into(features.as_slice(), &mut buf);
        assert_eq!(buf, linear.evaluate(&features));
    }
}

#[test]
fn best_class_matches_classify() {
    let mask = FeatureMask::all();
    let full = Classifier::train(&four_class_training(), &mask).unwrap();
    let linear = full.linear();
    for features in probe_features(&mask) {
        assert_eq!(
            linear.best_class(features.as_slice()),
            linear.classify(&features).class
        );
    }
}

#[test]
fn masked_features_into_matches_masked_features() {
    // An irregular mask exercises the slot-compaction path too.
    for mask in [FeatureMask::all(), sparse_mask(&[0, 2, 5, 11])] {
        let g = two_segment((1.0, 0.0), (0.0, 1.0), 0.31);
        let mut extractor = FeatureExtractor::new();
        let mut buf = vec![0.0; mask.count()];
        for &p in g.points() {
            extractor.update(p);
            extractor.masked_features_into(&mask, &mut buf);
            assert_eq!(buf, extractor.masked_features(&mask).as_slice());
        }
    }
}

#[test]
fn project_into_matches_project() {
    let mut raw = [0.0; FEATURE_COUNT];
    for (i, v) in raw.iter_mut().enumerate() {
        *v = (i as f64 + 1.0) * 1.7 - 9.0;
    }
    for mask in [FeatureMask::all(), sparse_mask(&[1, 3, 4, 8, 12])] {
        let mut buf = vec![0.0; mask.count()];
        mask.project_into(&raw, &mut buf);
        assert_eq!(buf, mask.project(&raw).as_slice());
    }
}

#[test]
fn mahalanobis_identity_matches_direct_distance() {
    // d²(x, μ_c) = xᵀΣ⁻¹x − 2·(Σ⁻¹μ_c)·x + μ_cᵀΣ⁻¹μ_c. The identity
    // cancels large terms, so its error is O(ε · xᵀΣ⁻¹x) — the tolerance
    // scales with the quadratic form, not the distance. An implementation
    // error (wrong sign, wrong class) would miss by orders of magnitude
    // more.
    let mask = FeatureMask::all();
    let full = Classifier::train(&four_class_training(), &mask).unwrap();
    let linear = full.linear();
    let mut ws = Workspace::with_dim(mask.count());
    for features in probe_features(&mask) {
        let quadratic = linear.mahalanobis_quadratic(&mut ws, features.as_slice());
        for class in 0..linear.num_classes() {
            let fast = linear.mahalanobis_from_quadratic(quadratic, features.as_slice(), class);
            let direct = linear.mahalanobis_to_class(&features, class);
            let tol = 1e-11 * quadratic.abs().max(direct.abs()).max(1.0);
            assert!(
                (fast - direct).abs() <= tol,
                "class {class}: identity {fast} vs direct {direct}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The class-blocked kernel against a plain scalar reference. The panel
// groups classes in fixed-width blocks, so class counts that fill a
// block, leave one partly empty, and span several blocks all matter.
// ---------------------------------------------------------------------

/// The per-class evaluations the kernel must reproduce bit for bit: one
/// scalar `dot_slices` per class, then the constant.
fn reference_evaluations(linear: &LinearClassifier, weights: &[Vector], f: &[f64]) -> Vec<f64> {
    weights
        .iter()
        .enumerate()
        .map(|(c, w)| dot_slices(w.as_slice(), f) + linear.constant(c))
        .collect()
}

/// First strict maximum: ties go to the lowest index, NaN never wins.
fn reference_argmax(evaluations: &[f64]) -> usize {
    let mut best = (0, f64::NEG_INFINITY);
    for (i, &v) in evaluations.iter().enumerate() {
        if v > best.1 {
            best = (i, v);
        }
    }
    best.0
}

/// A trained classifier's weights as training computes them, `Σ⁻¹ μ_c`,
/// independent of how the classifier stores them.
fn trained_weights(linear: &LinearClassifier) -> Vec<Vector> {
    (0..linear.num_classes())
        .map(|c| {
            let w = linear.inverse_covariance().mul_vector(linear.class_mean(c));
            assert_eq!(linear.weights(c), w, "weights({c}) gathers Σ⁻¹μ_c");
            w
        })
        .collect()
}

/// Asserts the kernel matches the reference on one feature vector.
fn assert_kernel_matches(linear: &LinearClassifier, weights: &[Vector], f: &[f64]) {
    let reference = reference_evaluations(linear, weights, f);
    let mut into = vec![0.0; linear.num_classes()];
    linear.evaluate_into(f, &mut into);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&into), bits(&reference), "evaluate_into vs reference");
    assert_eq!(
        bits(&linear.evaluate(&Vector::from_slice(f))),
        bits(&into),
        "evaluate vs evaluate_into"
    );
    assert_eq!(
        linear.best_class(f),
        reference_argmax(&reference),
        "best_class vs reference argmax on {f:?}"
    );
}

/// `k` L-shaped classes: the first leg at angle 2πi/k, the second turned
/// a quarter to the left.
fn k_class_training(k: usize) -> Vec<Vec<Gesture>> {
    (0..k)
        .map(|i| {
            let a = std::f64::consts::TAU * i as f64 / k as f64;
            let first = (a.cos(), a.sin());
            let second = (-a.sin(), a.cos());
            (0..10)
                .map(|e| two_segment(first, second, 0.1 + e as f64 * 0.04))
                .collect()
        })
        .collect()
}

/// Finite probes plus the non-finite vectors a corrupted gesture yields.
fn probes_with_non_finite(mask: &FeatureMask) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = probe_features(mask)
        .into_iter()
        .map(|v| v.as_slice().to_vec())
        .collect();
    let clean = out[0].clone();
    for (slot, value) in [(0, f64::NAN), (3, f64::INFINITY), (7, f64::NEG_INFINITY)] {
        let mut bad = clean.clone();
        bad[slot] = value;
        out.push(bad);
    }
    out.push(vec![f64::NAN; clean.len()]);
    out
}

#[test]
fn kernel_matches_scalar_reference_for_two_to_nine_classes() {
    let mask = FeatureMask::all();
    for k in 2..=9 {
        let full = Classifier::train(&k_class_training(k), &mask).unwrap();
        let linear = full.linear();
        assert_eq!(linear.num_classes(), k);
        let weights = trained_weights(linear);
        for f in probes_with_non_finite(&mask) {
            assert_kernel_matches(linear, &weights, &f);
        }
    }
}

#[test]
fn duplicated_weights_across_blocks_tie_to_the_lowest_class() {
    // Nine classes span three blocks at any block width up to eight.
    // Classes 1, 5 and 8 share weights and constant, so they tie exactly
    // wherever one of them is the maximum.
    let dim = 3;
    let row = |c: usize| Vector::from_vec(vec![c as f64 * 0.25 - 1.0, 0.5, -(c as f64) * 0.125]);
    let shared = Vector::from_slice(&[2.0, 1.0, 0.5]);
    let weights: Vec<Vector> = (0..9)
        .map(|c| {
            if matches!(c, 1 | 5 | 8) {
                shared.clone()
            } else {
                row(c)
            }
        })
        .collect();
    let constants: Vec<f64> = (0..9)
        .map(|c| {
            if matches!(c, 1 | 5 | 8) {
                0.75
            } else {
                -(c as f64)
            }
        })
        .collect();
    let means = vec![Vector::zeros(dim); 9];
    let linear = LinearClassifier::from_parts(
        weights.clone(),
        constants,
        means,
        Matrix::identity(dim),
        0.0,
    );
    for (c, w) in weights.iter().enumerate() {
        assert_eq!(&linear.weights(c), w, "weights({c}) round trip");
    }
    for f in [
        [1.0, 1.0, 1.0],
        [3.0, -2.0, 0.5],
        [0.0, 0.0, 0.0],
        [-0.0, -0.0, -0.0],
        // Class 0: every product is -0.0 and its constant is -0.0, so
        // its evaluation is -0.0 only if the fold starts at -0.0.
        [0.0, -0.0, 0.0],
        [-4.0, 8.0, 2.0],
        [f64::NAN, 1.0, 1.0],
        [f64::INFINITY, 0.0, 1.0],
    ] {
        assert_kernel_matches(&linear, &weights, &f);
    }
    assert_eq!(
        linear.best_class(&[1.0, 1.0, 1.0]),
        1,
        "tie goes to class 1"
    );
}

#[test]
fn gdp_auc_verdict_matches_scalar_reference_on_every_prefix() {
    // The GDP training corpus the benchmark serves, plus unseen gestures.
    let data = datasets::gdp(0x7124_1a11, 10, 0);
    let unseen = datasets::gdp(0x7e57_0001, 0, 4);
    let mask = FeatureMask::all();
    let (rec, _) = EagerRecognizer::train(&data.training, &mask, &EagerConfig::default()).unwrap();
    let auc = rec.auc();
    assert_eq!(
        auc.kinds().len(),
        21,
        "GDP's 11 classes give 21 AUC classes"
    );
    let auc_weights = trained_weights(auc.linear());
    let full_weights = trained_weights(rec.full_classifier().linear());
    let gestures = data
        .training
        .iter()
        .flatten()
        .chain(unseen.testing.iter().map(|t| &t.gesture));
    let mut prefixes = 0;
    let mut unambiguous = 0;
    for g in gestures {
        let mut fx = FeatureExtractor::new();
        let mut buf = vec![0.0; mask.count()];
        for &p in g.points() {
            fx.update(p);
            fx.masked_features_into(&mask, &mut buf);
            let finite = buf.iter().all(|v| v.is_finite());
            let winner = reference_argmax(&reference_evaluations(auc.linear(), &auc_weights, &buf));
            let expected = finite && auc.kinds()[winner].is_complete();
            assert_eq!(auc.is_unambiguous_slice(&buf), expected);
            assert_kernel_matches(auc.linear(), &auc_weights, &buf);
            assert_kernel_matches(rec.full_classifier().linear(), &full_weights, &buf);
            prefixes += 1;
            unambiguous += usize::from(expected);
        }
    }
    assert!(prefixes > 1000, "{prefixes} prefixes");
    assert!(
        unambiguous > 0 && unambiguous < prefixes,
        "both verdicts occur"
    );
}

#[test]
#[should_panic(expected = "feature dimension")]
fn best_class_rejects_a_short_feature_vector() {
    let full = Classifier::train(&k_class_training(5), &FeatureMask::all()).unwrap();
    full.linear().best_class(&[0.0; FEATURE_COUNT - 1]);
}

#[test]
#[should_panic(expected = "feature dimension")]
fn evaluate_into_rejects_a_long_feature_vector() {
    let full = Classifier::train(&k_class_training(5), &FeatureMask::all()).unwrap();
    let mut out = vec![0.0; 5];
    full.linear()
        .evaluate_into(&[0.0; FEATURE_COUNT + 1], &mut out);
}

/// The checked slice classification as one loop: the argmax under
/// `total_cmp` with `None` on any non-finite evaluation, then
/// P̂ = 1 / Σ_j e^{v_j − v_max}.
fn reference_classify_slice_checked(
    linear: &LinearClassifier,
    features: &[f64],
) -> Option<(usize, f64)> {
    if features.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let evaluations = linear.evaluate(&Vector::from_slice(features));
    let mut class = 0;
    let mut best = f64::NEG_INFINITY;
    for (i, &v) in evaluations.iter().enumerate() {
        if !v.is_finite() {
            return None;
        }
        if v.total_cmp(&best) == std::cmp::Ordering::Greater {
            class = i;
            best = v;
        }
    }
    let denom: f64 = evaluations.iter().map(|v| (v - best).exp()).sum();
    Some((class, 1.0 / denom))
}

/// `argmax_checked` then `probability` (the way a thresholded commit
/// composes them), `classify_slice_checked` and the reference agree bit
/// for bit, `None` included.
fn assert_split_matches(classifier: &Classifier, f: &[f64]) {
    let bits = |r: Option<(usize, f64)>| r.map(|(class, p)| (class, p.to_bits()));
    let mut evaluations = vec![0.0; classifier.num_classes()];
    let split = classifier
        .argmax_checked(f, &mut evaluations)
        .map(|class| (class, classifier.probability(&evaluations, class)));
    let mut scratch = vec![0.0; classifier.num_classes()];
    let whole = classifier.classify_slice_checked(f, &mut scratch);
    let reference = reference_classify_slice_checked(classifier.linear(), f);
    assert_eq!(bits(split), bits(whole), "split vs whole on {f:?}");
    assert_eq!(bits(whole), bits(reference), "whole vs reference on {f:?}");
}

#[test]
fn split_commit_classification_is_bitwise_equal_on_every_gdp_prefix() {
    let data = datasets::gdp(0x7124_1a11, 10, 0);
    let unseen = datasets::gdp(0x7e57_0001, 0, 4);
    let mask = FeatureMask::all();
    let (rec, _) = EagerRecognizer::train(&data.training, &mask, &EagerConfig::default()).unwrap();
    let classifier = rec.full_classifier();
    let gestures = data
        .training
        .iter()
        .flatten()
        .chain(unseen.testing.iter().map(|t| &t.gesture));
    let mut buf = vec![0.0; mask.count()];
    let mut prefixes = 0;
    for g in gestures {
        let mut fx = FeatureExtractor::new();
        for &p in g.points() {
            fx.update(p);
            fx.masked_features_into(&mask, &mut buf);
            assert_split_matches(classifier, &buf);
            prefixes += 1;
        }
    }
    assert!(prefixes > 1000, "{prefixes} prefixes");

    let mut evaluations = vec![0.0; classifier.num_classes()];
    for probe in probes_with_non_finite(&mask) {
        if probe.iter().any(|v| !v.is_finite()) {
            assert_eq!(classifier.argmax_checked(&probe, &mut evaluations), None);
        }
        assert_split_matches(classifier, &probe);
    }
    // Finite features whose evaluations overflow: the evaluation check,
    // not the feature check, must reject them.
    for huge in [1e308, -1e308] {
        let probe = vec![huge; mask.count()];
        classifier.linear().evaluate_into(&probe, &mut evaluations);
        assert!(
            evaluations.iter().any(|v| !v.is_finite()),
            "{huge} overflows"
        );
        assert_eq!(classifier.argmax_checked(&probe, &mut evaluations), None);
        assert_eq!(
            classifier.classify_slice_checked(&probe, &mut evaluations),
            None
        );
        assert_split_matches(classifier, &probe);
    }
}
