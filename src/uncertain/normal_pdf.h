// Normal pdf truncated to a central region holding `coverage` of the mass.
//
// The paper's uncertainty protocol (Section 5.1) assigns each point a Normal
// pdf whose expected value is the point and defines the object's domain
// region as the interval containing ~95% of the pdf area. Definition 1
// requires f > 0 exactly on the region, so we truncate and renormalize; the
// symmetric truncation keeps the mean unchanged and shrinks the variance by a
// known closed-form factor.
#ifndef UCLUST_UNCERTAIN_NORMAL_PDF_H_
#define UCLUST_UNCERTAIN_NORMAL_PDF_H_

#include "uncertain/pdf.h"

namespace uclust::uncertain {

/// Normal(mu, sigma) truncated to [mu - c*sigma, mu + c*sigma].
class TruncatedNormalPdf final : public Pdf {
 public:
  /// Creates a truncated Normal; `coverage` in (0, 1) selects c such that the
  /// untruncated mass of the region is `coverage` (default 0.95).
  TruncatedNormalPdf(double mu, double sigma, double coverage = 0.95);

  /// Convenience factory with the default 95% region.
  static PdfPtr Make(double mu, double sigma);

  /// Reconstructs a pdf from (mu, sigma, half_width_sigmas()) — the exact
  /// parameterization the binary dataset format stores. Bypasses the
  /// coverage -> c quantile inversion so that a serialize/deserialize round
  /// trip reproduces the original moments bit-for-bit.
  static PdfPtr FromHalfWidth(double mu, double sigma, double half_width);

  /// Variance of Normal(., sigma) truncated to +- half_width sigmas (the
  /// closed form every instance stores): (sigma * sigma) *
  /// VarianceFactor(half_width).
  static double TruncatedVariance(double sigma, double half_width);

  /// The sigma-free part of the truncated variance, 1 - 2 c phi(c) /
  /// mass(c) with mass(c) = 2 Phi(c) - 1. A decoder that sees one half-width
  /// many times may keep it and form (sigma * sigma) * factor itself; the
  /// result is bit-identical to TruncatedVariance.
  static double VarianceFactor(double half_width);

  /// Untruncated location parameter (== mean(), by symmetry).
  double mu() const { return mu_; }
  /// Untruncated scale parameter.
  double sigma() const { return sigma_; }
  /// Truncation half-width c in sigma units (region = mu +- c*sigma).
  double half_width_sigmas() const { return c_; }

  double mean() const override { return mu_; }
  double second_moment() const override;
  double lower() const override { return mu_ - c_ * sigma_; }
  double upper() const override { return mu_ + c_ * sigma_; }
  double Density(double x) const override;
  double Cdf(double x) const override;
  double Sample(common::Rng* rng) const override;
  const char* TypeName() const override { return "normal"; }

 private:
  struct HalfWidthTag {};
  TruncatedNormalPdf(HalfWidthTag, double mu, double sigma, double half_width);
  // Untruncated mass of [-c, c]: 2 Phi(c) - 1.
  static double RegionMass(double half_width);
  static double VarianceFactor(double half_width, double mass);

  double mu_;
  double sigma_;
  double c_;          // half-width in sigma units
  double mass_;       // untruncated mass of the region: 2*Phi(c) - 1
  double variance_;   // truncated variance (closed form)
};

}  // namespace uclust::uncertain

#endif  // UCLUST_UNCERTAIN_NORMAL_PDF_H_
