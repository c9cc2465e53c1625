//! Prediction metrics: precision, recall and Average Precision (§V-B.1).
//!
//! The paper computes precision and recall at every threshold in
//! `{0, 0.01, …, 1}` and integrates the area under the precision–recall curve
//! to obtain AP. We follow the same procedure.

/// Precision and recall of `scores >= threshold` against binary `labels`.
pub fn precision_recall_at(scores: &[f64], labels: &[f64], threshold: f64) -> (f64, f64) {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    let mut tp = 0.0;
    let mut fp = 0.0;
    let mut fne = 0.0;
    for (&s, &l) in scores.iter().zip(labels.iter()) {
        let predicted = s >= threshold;
        let positive = l >= 0.5;
        match (predicted, positive) {
            (true, true) => tp += 1.0,
            (true, false) => fp += 1.0,
            (false, true) => fne += 1.0,
            (false, false) => {}
        }
    }
    let precision = if tp + fp == 0.0 { 1.0 } else { tp / (tp + fp) };
    let recall = if tp + fne == 0.0 {
        1.0
    } else {
        tp / (tp + fne)
    };
    (precision, recall)
}

/// Average Precision: the area under the precision–recall curve obtained by
/// sweeping the threshold from 1 down to 0 in steps of 0.01 and summing
/// `(R_i − R_{i−1}) · P_i` (the standard step-wise AP definition; recall is
/// non-decreasing as the threshold drops).
pub fn average_precision(scores: &[f64], labels: &[f64]) -> f64 {
    if scores.is_empty() {
        return 0.0;
    }
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    for i in (0..=100).rev() {
        let threshold = i as f64 / 100.0;
        let (precision, recall) = precision_recall_at(scores, labels, threshold);
        if recall > prev_recall {
            ap += (recall - prev_recall) * precision;
            prev_recall = recall;
        }
    }
    ap.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_have_ap_one() {
        let labels = [1.0, 0.0, 1.0, 0.0, 1.0];
        let scores = [0.9, 0.1, 0.95, 0.2, 0.99];
        let ap = average_precision(&scores, &labels);
        assert!(ap > 0.99, "perfect separation should give AP ≈ 1, got {ap}");
    }

    #[test]
    fn inverted_predictions_have_low_ap() {
        let labels = [1.0, 0.0, 1.0, 0.0];
        let scores = [0.1, 0.9, 0.2, 0.8];
        let ap = average_precision(&scores, &labels);
        assert!(
            ap < 0.6,
            "anti-correlated scores should score poorly, got {ap}"
        );
    }

    #[test]
    fn random_predictions_score_near_the_positive_rate() {
        // With constant scores the precision at every attainable threshold is
        // the base rate.
        let labels: Vec<f64> = (0..100)
            .map(|i| if i % 4 == 0 { 1.0 } else { 0.0 })
            .collect();
        let scores = vec![0.5; 100];
        let ap = average_precision(&scores, &labels);
        assert!(
            (ap - 0.25).abs() < 0.02,
            "constant scores should give AP = base rate, got {ap}"
        );
    }

    #[test]
    fn precision_recall_hand_computed() {
        let labels = [1.0, 1.0, 0.0, 0.0];
        let scores = [0.8, 0.4, 0.6, 0.2];
        let (p, r) = precision_recall_at(&scores, &labels, 0.5);
        // Predicted positives: idx 0 (tp) and idx 2 (fp). Recall: 1 of 2.
        assert!((p - 0.5).abs() < 1e-12);
        assert!((r - 0.5).abs() < 1e-12);
        let (p0, r0) = precision_recall_at(&scores, &labels, 0.0);
        assert!((p0 - 0.5).abs() < 1e-12); // everything predicted positive
        assert!((r0 - 1.0).abs() < 1e-12);
        let (p1, r1) = precision_recall_at(&scores, &labels, 0.9);
        assert!((p1 - 1.0).abs() < 1e-12); // nothing predicted -> precision 1 by convention
        assert!((r1 - 0.0).abs() < 1e-12);
    }

    #[test]
    fn better_predictor_has_higher_ap() {
        let labels: Vec<f64> = (0..50).map(|i| if i < 15 { 1.0 } else { 0.0 }).collect();
        let good: Vec<f64> = (0..50)
            .map(|i| {
                if i < 15 {
                    0.8 + (i as f64) * 0.01
                } else {
                    0.3 - (i as f64) * 0.001
                }
            })
            .collect();
        let noisy: Vec<f64> = (0..50)
            .map(|i| if (i * 7) % 3 == 0 { 0.7 } else { 0.4 })
            .collect();
        assert!(average_precision(&good, &labels) > average_precision(&noisy, &labels));
    }

    #[test]
    fn empty_input_gives_zero() {
        assert_eq!(average_precision(&[], &[]), 0.0);
    }
}
