#include "uncertain/exponential_pdf.h"

#include <cassert>
#include <cmath>

#include "common/math_utils.h"

namespace uclust::uncertain {

namespace {

// Unit-rate (lambda = 1) truncated-Exponential constants on [0, q95]:
//   u   = exp(-q95) = 0.05 (mass beyond the region)
//   m1  = E[Y]   = 1 - q95 * u / (1 - u)
//   m2  = E[Y^2] = (2 - u * (q95^2 + 2 q95 + 2)) / (1 - u)
// For rate lambda these scale as m1/lambda and m2/lambda^2.
constexpr double kQ95 = common::kExp95;
const double kTailMass = std::exp(-kQ95);  // == 0.05 by construction
const double kUnitM1 = 1.0 - kQ95 * kTailMass / (1.0 - kTailMass);
const double kUnitM2 =
    (2.0 - kTailMass * (kQ95 * kQ95 + 2.0 * kQ95 + 2.0)) / (1.0 - kTailMass);

}  // namespace

TruncatedExponentialPdf::TruncatedExponentialPdf(double w, double rate)
    : w_(w), rate_(rate) {
  assert(rate > 0.0 && "TruncatedExponentialPdf requires rate > 0");
  span_ = kQ95 / rate_;
  shift_ = w_ - kUnitM1 / rate_;
  var_ = TruncatedVariance(rate_);
}

double TruncatedExponentialPdf::TruncatedVariance(double rate) {
  return (kUnitM2 - kUnitM1 * kUnitM1) / (rate * rate);
}

PdfPtr TruncatedExponentialPdf::Make(double w, double rate) {
  return std::make_shared<TruncatedExponentialPdf>(w, rate);
}

double TruncatedExponentialPdf::second_moment() const {
  return SecondMomentOf(w_, var_);
}

double TruncatedExponentialPdf::Density(double x) const {
  if (x < lower() || x > upper()) return 0.0;
  const double y = x - shift_;
  return rate_ * std::exp(-rate_ * y) / (1.0 - kTailMass);
}

double TruncatedExponentialPdf::Cdf(double x) const {
  if (x <= lower()) return 0.0;
  if (x >= upper()) return 1.0;
  const double y = x - shift_;
  return (1.0 - std::exp(-rate_ * y)) / (1.0 - kTailMass);
}

double TruncatedExponentialPdf::Sample(common::Rng* rng) const {
  // Inverse CDF restricted to the truncated support.
  const double u = rng->Uniform();
  const double y = -std::log(1.0 - u * (1.0 - kTailMass)) / rate_;
  return shift_ + y;
}

}  // namespace uclust::uncertain
