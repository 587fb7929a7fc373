#include "uncertain/pdf.h"

namespace uclust::uncertain {

Pdf::~Pdf() = default;

double Pdf::VarianceOf(double mean, double mu2) {
  const double v = mu2 - mean * mean;
  // Guard tiny negative values from floating-point cancellation.
  return v > 0.0 ? v : 0.0;
}

double Pdf::SecondMomentOf(double mean, double var) {
  return var + mean * mean;
}

}  // namespace uclust::uncertain
