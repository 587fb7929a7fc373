// Degenerate (Dirac) pdf: all mass at a single point.
//
// Deterministic objects are modeled as uncertain objects whose per-dimension
// pdfs are Dirac; UK-means / UCPC / MMVar then degenerate to classic K-means,
// which is exactly what the paper's "Case 1" evaluation protocol needs.
#ifndef UCLUST_UNCERTAIN_DIRAC_PDF_H_
#define UCLUST_UNCERTAIN_DIRAC_PDF_H_

#include <limits>

#include "uncertain/pdf.h"

namespace uclust::uncertain {

/// Point mass at `x`. Density() returns +infinity at x (by convention) and 0
/// elsewhere; moments and sampling are exact.
class DiracPdf final : public Pdf {
 public:
  /// Creates a point mass at x.
  explicit DiracPdf(double x) : x_(x) {}

  /// Convenience factory.
  static PdfPtr Make(double x);

  /// Moments of a point mass at x: (x, x^2).
  static PdfMoments MomentsOf(double x) { return {x, x * x}; }

  double mean() const override { return x_; }
  double second_moment() const override { return MomentsOf(x_).mu2; }
  double lower() const override { return x_; }
  double upper() const override { return x_; }
  double Density(double x) const override {
    return x == x_ ? std::numeric_limits<double>::infinity() : 0.0;
  }
  double Cdf(double x) const override { return x >= x_ ? 1.0 : 0.0; }
  double Sample(common::Rng* /*rng*/) const override { return x_; }
  const char* TypeName() const override { return "dirac"; }

 private:
  double x_;
};

}  // namespace uclust::uncertain

#endif  // UCLUST_UNCERTAIN_DIRAC_PDF_H_
