// Discrete (weighted point-mass) pdf.
//
// Useful for (a) representing empirically sampled uncertainty (the
// sample-based representation used by the early uncertain-clustering papers)
// and (b) constructing exact test fixtures whose moments are trivial to
// compute by hand.
#ifndef UCLUST_UNCERTAIN_DISCRETE_PDF_H_
#define UCLUST_UNCERTAIN_DISCRETE_PDF_H_

#include <span>
#include <vector>

#include "uncertain/pdf.h"

namespace uclust::uncertain {

/// Finite mixture of point masses: values v_i with weights w_i (w_i > 0,
/// normalized internally to sum to 1).
class DiscretePdf final : public Pdf {
 public:
  /// Creates a discrete pdf; `values` and `weights` must be non-empty and of
  /// equal length, with positive weights.
  DiscretePdf(std::vector<double> values, std::vector<double> weights);

  /// Uniformly weighted point masses.
  static PdfPtr Uniformly(std::vector<double> values);

  /// Reconstructs a pdf from weights that are already normalized (as
  /// returned by weights()). Skips the renormalizing division so that a
  /// serialize/deserialize round trip reproduces the original moments
  /// bit-for-bit; used by the binary dataset format.
  static PdfPtr FromNormalized(std::vector<double> values,
                               std::vector<double> weights);

  /// Moments of the point masses `values` with normalized `weights` (equal
  /// lengths), accumulated in index order.
  static PdfMoments MomentsOf(std::span<const double> values,
                              std::span<const double> weights);

  /// The support points.
  const std::vector<double>& values() const { return values_; }
  /// The normalized weights.
  const std::vector<double>& weights() const { return weights_; }

  double mean() const override { return mean_; }
  double second_moment() const override { return m2_; }
  double lower() const override { return lo_; }
  double upper() const override { return hi_; }
  /// Returns the *probability mass* at x (not a density); 0 off-support.
  double Density(double x) const override;
  double Cdf(double x) const override;
  double Sample(common::Rng* rng) const override;
  const char* TypeName() const override { return "discrete"; }

 private:
  struct NormalizedTag {};
  DiscretePdf(NormalizedTag, std::vector<double> values,
              std::vector<double> weights);
  void ComputeDerived();

  std::vector<double> values_;
  std::vector<double> weights_;  // normalized
  std::vector<double> cum_;      // cumulative weights for sampling
  double mean_ = 0.0;
  double m2_ = 0.0;
  double lo_ = 0.0;
  double hi_ = 0.0;
};

}  // namespace uclust::uncertain

#endif  // UCLUST_UNCERTAIN_DISCRETE_PDF_H_
