// Univariate probability density building block of the uncertainty model.
//
// A multivariate uncertain object (Definition 1 of the paper) is represented
// as a product of per-dimension pdfs over an axis-aligned box region; all
// formulas the paper relies on (Eqs. 2-6, Lemma 3, Theorem 3) consume only
// per-dimension first and second moments, which every Pdf exposes in closed
// form.
#ifndef UCLUST_UNCERTAIN_PDF_H_
#define UCLUST_UNCERTAIN_PDF_H_

#include <memory>
#include <string>

#include "common/rng.h"

namespace uclust::uncertain {

/// First and second raw moments of a univariate pdf.
struct PdfMoments {
  double mean = 0.0;  ///< E[X]
  double mu2 = 0.0;   ///< E[X^2]
};

/// Abstract univariate pdf with bounded support and analytic moments.
///
/// Implementations are immutable after construction and safe to share across
/// threads and objects.
class Pdf {
 public:
  virtual ~Pdf();

  /// Expected value E[X].
  virtual double mean() const = 0;
  /// Second raw moment E[X^2].
  virtual double second_moment() const = 0;
  /// Variance E[X^2] - E[X]^2 (non-negative by construction).
  double variance() const { return VarianceOf(mean(), second_moment()); }

  /// The moment formulas below, and the per-family static ones (e.g.
  /// UniformPdf::MomentsOf), are shared by the pdf classes and by the .ubin
  /// moment decoder (io::BinaryDatasetReader::ReadMomentRows), which never
  /// builds a pdf: one function per formula keeps both bit-identical.
  ///
  /// max(mu2 - mean^2, 0): the variance from raw moments, clamping tiny
  /// negative values left by floating-point cancellation.
  static double VarianceOf(double mean, double mu2);
  /// var + mean^2: the second raw moment of a pdf whose variance has a
  /// closed form.
  static double SecondMomentOf(double mean, double var);

  /// Lower end of the domain region (support of the truncated pdf).
  virtual double lower() const = 0;
  /// Upper end of the domain region.
  virtual double upper() const = 0;

  /// Density at x; zero outside [lower(), upper()].
  virtual double Density(double x) const = 0;
  /// Cumulative distribution function at x.
  virtual double Cdf(double x) const = 0;
  /// Draws one realization (always inside [lower(), upper()]).
  virtual double Sample(common::Rng* rng) const = 0;

  /// Short type tag ("uniform", "normal", ...), used in diagnostics.
  virtual const char* TypeName() const = 0;
};

/// Shared immutable pdf handle used throughout the library.
using PdfPtr = std::shared_ptr<const Pdf>;

}  // namespace uclust::uncertain

#endif  // UCLUST_UNCERTAIN_PDF_H_
