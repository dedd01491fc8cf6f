// Binary-classifier evaluation curves: precision-recall (Fig. 3), ROC
// (Fig. 8), and the scalar summaries the paper reports (AUPRC, AUC, F-score).
//
// All functions take a vector of (score, label) pairs where higher score
// means "more likely to be a link" and label is the ground truth.
#pragma once

#include <cstddef>
#include <vector>

namespace metas::util {

/// One scored, labelled prediction.
struct Scored {
  double score = 0.0;
  bool positive = false;
};

/// One point on a PR or ROC curve, tagged with the threshold that produced it.
struct CurvePoint {
  double threshold = 0.0;
  double x = 0.0;  // recall (PR) or false-positive rate (ROC)
  double y = 0.0;  // precision (PR) or true-positive rate (ROC)
};

/// Confusion counts at a fixed decision threshold (score >= threshold => positive).
struct Confusion {
  std::size_t tp = 0, fp = 0, tn = 0, fn = 0;
  double precision() const;
  double recall() const;
  double fpr() const;
  double f_score() const;
  double accuracy() const;
};

Confusion confusion_at(const std::vector<Scored>& data, double threshold);

/// Precision-recall curve swept over every distinct score.
/// Points are ordered by increasing recall.
std::vector<CurvePoint> pr_curve(const std::vector<Scored>& data);

/// ROC curve swept over every distinct score, ordered by increasing FPR.
std::vector<CurvePoint> roc_curve(const std::vector<Scored>& data);

/// Area under the precision-recall curve, average-precision style: each
/// step in recall is weighted by the precision where it ends, with no
/// interpolation between points.
double auprc(const std::vector<Scored>& data);

/// Area under the ROC curve (equivalent to the rank statistic).
double auc(const std::vector<Scored>& data);

/// Threshold in [lo, hi] maximizing F-score over a uniform grid of `steps`.
double best_f_threshold(const std::vector<Scored>& data, double lo = -1.0,
                        double hi = 1.0, int steps = 200);

}  // namespace metas::util
