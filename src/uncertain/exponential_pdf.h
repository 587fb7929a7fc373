// Shifted Exponential pdf truncated to its 95% region.
//
// The paper requires each generated pdf to have its expected value exactly at
// the original deterministic point w. We use a shifted Exponential with rate
// lambda starting at s, truncated to [s, s + q95/lambda] where
// q95 = -ln(0.05), and choose s so that the *truncated* mean is exactly w.
#ifndef UCLUST_UNCERTAIN_EXPONENTIAL_PDF_H_
#define UCLUST_UNCERTAIN_EXPONENTIAL_PDF_H_

#include "uncertain/pdf.h"

namespace uclust::uncertain {

/// Exponential(rate) shifted to start at s and truncated to its 95% region,
/// parameterized by the desired (truncated) mean `w`.
class TruncatedExponentialPdf final : public Pdf {
 public:
  /// Creates a truncated shifted Exponential with truncated mean exactly `w`
  /// and rate `rate` (> 0); larger rates concentrate the mass.
  TruncatedExponentialPdf(double w, double rate);

  /// Convenience factory.
  static PdfPtr Make(double w, double rate);

  /// Truncated variance for rate `rate` (independent of the mean).
  static double TruncatedVariance(double rate);

  /// The rate parameter lambda.
  double rate() const { return rate_; }
  /// The shift s (start of the support).
  double shift() const { return shift_; }

  double mean() const override { return w_; }
  double second_moment() const override;
  double lower() const override { return shift_; }
  double upper() const override { return shift_ + span_; }
  double Density(double x) const override;
  double Cdf(double x) const override;
  double Sample(common::Rng* rng) const override;
  const char* TypeName() const override { return "exponential"; }

 private:
  double w_;       // truncated mean (== the original deterministic value)
  double rate_;    // lambda
  double shift_;   // s = w - m1/lambda
  double span_;    // q95 / lambda
  double var_;     // truncated variance
};

}  // namespace uclust::uncertain

#endif  // UCLUST_UNCERTAIN_EXPONENTIAL_PDF_H_
