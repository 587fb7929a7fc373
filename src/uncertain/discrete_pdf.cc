#include "uncertain/discrete_pdf.h"

#include <algorithm>
#include <cassert>

namespace uclust::uncertain {

DiscretePdf::DiscretePdf(std::vector<double> values,
                         std::vector<double> weights)
    : values_(std::move(values)), weights_(std::move(weights)) {
  assert(!values_.empty());
  assert(values_.size() == weights_.size());
  double total = 0.0;
  for (double w : weights_) {
    assert(w > 0.0);
    total += w;
  }
  for (double& w : weights_) w /= total;
  ComputeDerived();
}

DiscretePdf::DiscretePdf(NormalizedTag, std::vector<double> values,
                         std::vector<double> weights)
    : values_(std::move(values)), weights_(std::move(weights)) {
  assert(!values_.empty());
  assert(values_.size() == weights_.size());
  ComputeDerived();
}

PdfMoments DiscretePdf::MomentsOf(std::span<const double> values,
                                  std::span<const double> weights) {
  assert(values.size() == weights.size());
  PdfMoments mom;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    mom.mean += weights[i] * values[i];
    mom.mu2 += weights[i] * values[i] * values[i];
  }
  return mom;
}

void DiscretePdf::ComputeDerived() {
  const PdfMoments mom = MomentsOf(values_, weights_);
  mean_ = mom.mean;
  m2_ = mom.mu2;
  cum_.reserve(weights_.size());
  double acc = 0.0;
  lo_ = values_[0];
  hi_ = values_[0];
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    assert(weights_[i] > 0.0);
    acc += weights_[i];
    cum_.push_back(acc);
    lo_ = std::min(lo_, values_[i]);
    hi_ = std::max(hi_, values_[i]);
  }
  cum_.back() = 1.0;  // guard against rounding drift
}

PdfPtr DiscretePdf::Uniformly(std::vector<double> values) {
  std::vector<double> w(values.size(), 1.0);
  return std::make_shared<DiscretePdf>(std::move(values), std::move(w));
}

PdfPtr DiscretePdf::FromNormalized(std::vector<double> values,
                                   std::vector<double> weights) {
  return std::shared_ptr<DiscretePdf>(
      new DiscretePdf(NormalizedTag{}, std::move(values), std::move(weights)));
}

double DiscretePdf::Density(double x) const {
  double mass = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] == x) mass += weights_[i];
  }
  return mass;
}

double DiscretePdf::Cdf(double x) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] <= x) acc += weights_[i];
  }
  return acc;
}

double DiscretePdf::Sample(common::Rng* rng) const {
  const double u = rng->Uniform();
  const auto it = std::lower_bound(cum_.begin(), cum_.end(), u);
  const std::size_t idx =
      std::min(static_cast<std::size_t>(it - cum_.begin()),
               values_.size() - 1);
  return values_[idx];
}

}  // namespace uclust::uncertain
