#include "uncertain/normal_pdf.h"

#include <cassert>
#include <cmath>

#include "common/math_utils.h"

namespace uclust::uncertain {

namespace {

// Inverse of the standard Normal CDF via Newton iteration seeded with the
// Beasley-Springer-Moro style logistic approximation; only used once per pdf
// construction so simplicity beats speed.
double NormalQuantile(double p) {
  assert(p > 0.0 && p < 1.0);
  // Crude initial guess.
  double z = 0.0;
  for (int i = 0; i < 60; ++i) {
    const double f = common::NormalCdf(z) - p;
    const double d = common::NormalPdf(z);
    if (d < 1e-300) break;
    const double step = f / d;
    z -= step;
    if (std::fabs(step) < 1e-14) break;
  }
  return z;
}

}  // namespace

namespace {

// Central region [-c, c] with untruncated mass `coverage`:
// Phi(c) = (1 + coverage) / 2. The default coverage has a precomputed
// constant because dataset generators construct millions of these.
double CoverageToHalfWidth(double coverage) {
  assert(coverage > 0.0 && coverage < 1.0);
  return coverage == 0.95 ? common::kNormal95
                          : NormalQuantile(0.5 * (1.0 + coverage));
}

}  // namespace

TruncatedNormalPdf::TruncatedNormalPdf(double mu, double sigma,
                                       double coverage)
    : TruncatedNormalPdf(HalfWidthTag{}, mu, sigma,
                         CoverageToHalfWidth(coverage)) {}

// The single derivation of mass_/variance_: a pdf rebuilt from
// half_width_sigmas() (the binary format's stored parameter), and the .ubin
// moment decoder, carry bit-identical moments because they run these exact
// functions.
TruncatedNormalPdf::TruncatedNormalPdf(HalfWidthTag, double mu, double sigma,
                                       double half_width)
    : mu_(mu), sigma_(sigma), c_(half_width) {
  assert(sigma > 0.0 && "TruncatedNormalPdf requires sigma > 0");
  assert(half_width > 0.0);
  mass_ = RegionMass(c_);
  variance_ = (sigma_ * sigma_) * VarianceFactor(c_, mass_);
}

double TruncatedNormalPdf::RegionMass(double half_width) {
  return 2.0 * common::NormalCdf(half_width) - 1.0;
}

double TruncatedNormalPdf::VarianceFactor(double half_width, double mass) {
  // Symmetric truncation: Var = sigma^2 * (1 - 2 c phi(c) / mass).
  return 1.0 - 2.0 * half_width * common::NormalPdf(half_width) / mass;
}

double TruncatedNormalPdf::VarianceFactor(double half_width) {
  return VarianceFactor(half_width, RegionMass(half_width));
}

double TruncatedNormalPdf::TruncatedVariance(double sigma,
                                             double half_width) {
  return (sigma * sigma) * VarianceFactor(half_width);
}

PdfPtr TruncatedNormalPdf::Make(double mu, double sigma) {
  return std::make_shared<TruncatedNormalPdf>(mu, sigma);
}

PdfPtr TruncatedNormalPdf::FromHalfWidth(double mu, double sigma,
                                         double half_width) {
  return std::shared_ptr<TruncatedNormalPdf>(
      new TruncatedNormalPdf(HalfWidthTag{}, mu, sigma, half_width));
}

double TruncatedNormalPdf::second_moment() const {
  return SecondMomentOf(mu_, variance_);
}

double TruncatedNormalPdf::Density(double x) const {
  if (x < lower() || x > upper()) return 0.0;
  const double z = (x - mu_) / sigma_;
  return common::NormalPdf(z) / (sigma_ * mass_);
}

double TruncatedNormalPdf::Cdf(double x) const {
  if (x <= lower()) return 0.0;
  if (x >= upper()) return 1.0;
  const double z = (x - mu_) / sigma_;
  return (common::NormalCdf(z) - common::NormalCdf(-c_)) / mass_;
}

double TruncatedNormalPdf::Sample(common::Rng* rng) const {
  // Rejection from the untruncated Normal; acceptance = coverage (>= 95%).
  for (;;) {
    const double x = rng->Normal(mu_, sigma_);
    if (x >= lower() && x <= upper()) return x;
  }
}

}  // namespace uclust::uncertain
