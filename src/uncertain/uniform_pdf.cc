#include "uncertain/uniform_pdf.h"

#include <cassert>

namespace uclust::uncertain {

UniformPdf::UniformPdf(double lo, double hi) : lo_(lo), hi_(hi) {
  assert(lo < hi && "UniformPdf requires lo < hi");
}

PdfPtr UniformPdf::Centered(double center, double halfwidth) {
  return std::make_shared<UniformPdf>(center - halfwidth, center + halfwidth);
}

PdfMoments UniformPdf::MomentsOf(double lo, double hi) {
  // E[X^2] = (lo^2 + lo*hi + hi^2) / 3.
  return {0.5 * (lo + hi), (lo * lo + lo * hi + hi * hi) / 3.0};
}

double UniformPdf::mean() const { return MomentsOf(lo_, hi_).mean; }

double UniformPdf::second_moment() const { return MomentsOf(lo_, hi_).mu2; }

double UniformPdf::Density(double x) const {
  if (x < lo_ || x > hi_) return 0.0;
  return 1.0 / (hi_ - lo_);
}

double UniformPdf::Cdf(double x) const {
  if (x <= lo_) return 0.0;
  if (x >= hi_) return 1.0;
  return (x - lo_) / (hi_ - lo_);
}

double UniformPdf::Sample(common::Rng* rng) const {
  return rng->Uniform(lo_, hi_);
}

}  // namespace uclust::uncertain
