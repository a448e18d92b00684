// Special functions needed for GWAS statistics: the regularized incomplete
// gamma function (chi-squared survival function / p-values).
//
// Implementations follow the classic series / continued-fraction split
// (Numerical Recipes style) with double precision; tests compare against
// high-precision reference values.
#pragma once

namespace gendpr::stats {

/// Regularized lower incomplete gamma P(a, x), a > 0, x >= 0.
double regularized_gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double regularized_gamma_q(double a, double x);

/// Survival function of the chi-squared distribution with k degrees of
/// freedom: P[X >= x]. This is the p-value of a chi-squared statistic.
double chi2_sf(double x, double k);

}  // namespace gendpr::stats
