// Small dense LP solver (Bland-rule primal simplex on the standard tableau).
//
// This is NOT used by the production sizing flow; it is a slow, simple,
// independent oracle that tests use to validate the min-cost-flow reduction
// of the D-phase LP on small instances. Keeping an oracle with a completely
// different algorithmic lineage is what lets the test suite certify the
// network-simplex + dual-extraction path end to end.
//
// Problem form:
//     maximize  c^T x
//     subject to A x <= b,  x free (internally split into x+ − x−)
#pragma once

#include <optional>
#include <vector>

namespace mft {

/// A dense "maximize c^T x s.t. Ax <= b" instance over free variables.
class DenseLp {
 public:
  explicit DenseLp(int num_vars);

  /// Adds one row: sum_i coeff[i]*x[i] <= rhs. `coeff` arity = num_vars.
  void add_row(const std::vector<double>& coeff, double rhs);

  /// Convenience: a <= x_v <= b as two rows.
  void add_bounds(int v, double lo, double hi);

  void set_objective(int v, double coeff);

  struct Solution {
    std::vector<double> x;
    double objective = 0.0;
  };

  /// Solves; nullopt if infeasible or unbounded.
  std::optional<Solution> solve() const;

  int num_vars() const { return num_vars_; }

 private:
  int num_vars_;
  std::vector<std::vector<double>> rows_;
  std::vector<double> rhs_;
  std::vector<double> obj_;
};

}  // namespace mft
