// Uniform pdf on [lo, hi]. The domain region equals the full support (100% of
// the mass), so no truncation is involved.
#ifndef UCLUST_UNCERTAIN_UNIFORM_PDF_H_
#define UCLUST_UNCERTAIN_UNIFORM_PDF_H_

#include "uncertain/pdf.h"

namespace uclust::uncertain {

/// Continuous uniform distribution on [lo, hi], lo < hi.
class UniformPdf final : public Pdf {
 public:
  /// Creates a uniform pdf on [lo, hi]; requires lo < hi.
  UniformPdf(double lo, double hi);

  /// Convenience: uniform centered at `center` with half-width `halfwidth`.
  static PdfPtr Centered(double center, double halfwidth);

  /// Moments of the uniform pdf on [lo, hi].
  static PdfMoments MomentsOf(double lo, double hi);

  double mean() const override;
  double second_moment() const override;
  double lower() const override { return lo_; }
  double upper() const override { return hi_; }
  double Density(double x) const override;
  double Cdf(double x) const override;
  double Sample(common::Rng* rng) const override;
  const char* TypeName() const override { return "uniform"; }

 private:
  double lo_;
  double hi_;
};

}  // namespace uclust::uncertain

#endif  // UCLUST_UNCERTAIN_UNIFORM_PDF_H_
