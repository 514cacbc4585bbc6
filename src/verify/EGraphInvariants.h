//===- verify/EGraphInvariants.h - E-graph consistency check ----*- C++ -*-===//
///
/// \file
/// A structural audit of an E-graph, run by the fuzzing tests after every
/// saturation round. The checks are exactly the representation invariants
/// the matcher and the constraint generator rely on:
///
///   * membership — every live node is listed in the class the union-find
///     says it belongs to, and only there;
///   * canonicality — canonicalClasses() returns fixed points of find(),
///     each with at least one live node;
///   * congruence — two live nodes with the same operator and pairwise
///     equivalent children sit in the same class (the closure property
///     saturation must preserve);
///   * constants — a class's folded constant agrees with every literal
///     node inside it, and two classes holding different constants are
///     recognized as distinct;
///   * accounting — numNodes() equals the number of live nodes reachable
///     through the classes;
///   * hashcons — on a rebuilt graph, looking up every live node's
///     canonical key finds that very node (so no retired node holds an
///     entry, and no live node lost its own).
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_VERIFY_EGRAPHINVARIANTS_H
#define DENALI_VERIFY_EGRAPHINVARIANTS_H

#include "egraph/EGraph.h"

#include <string>
#include <vector>

namespace denali {
namespace verify {

struct InvariantReport {
  bool Ok = true;
  std::vector<std::string> Violations;

  std::string toString() const;
};

/// Audits \p G; collects every violation found (empty = healthy).
InvariantReport checkEGraphInvariants(const egraph::EGraph &G);

} // namespace verify
} // namespace denali

#endif // DENALI_VERIFY_EGRAPHINVARIANTS_H
