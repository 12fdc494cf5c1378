// Combinatorial fathoming oracle plugged into the branch-and-bound engine
// (BnbOptions::oracle): from a node's variable box it derives the forced
// hidden / forced visible attribute sets and answers, without any simplex
// work,
//   - infeasible:  some private module cannot be satisfied by ANY hidden
//                  set available inside the box;
//   - resolved:    every private module is already satisfied by the forced
//                  hidden set — the box optimum is the completed forced
//                  solution, whose exact cost closes the subtree and whose
//                  decoded point seeds the incumbent;
//   - bounded:     otherwise, forced cost + a disjoint-module packing of
//                  cheapest completions is a valid lower bound: modules
//                  whose remaining payment universes (attributes any of
//                  their options could still charge for) are pairwise
//                  disjoint cannot share a hidden attribute, so their
//                  cheapest completions sum. Overlapping modules are
//                  packed greedily (most expensive first), which always
//                  dominates the single largest completion.
// Module satisfaction is checked against the instance's requirement lists
// (for instances derived from a workflow, exactly the per-module
// minimal-safe-set antichains), so a node costs no standalone-privacy check.
#ifndef PROVVIEW_SECUREVIEW_BNB_ORACLE_H_
#define PROVVIEW_SECUREVIEW_BNB_ORACLE_H_

#include "lp/branch_and_bound.h"
#include "secureview/ilp_encoding.h"
#include "secureview/instance.h"

namespace provview {

/// Instance-level oracle. `inst` and `enc` are borrowed and must outlive
/// every call; the returned callable is pure and thread-safe.
BnbOracle MakeSecureViewBnbOracle(const SecureViewInstance* inst,
                                  const SvEncoding* enc);

}  // namespace provview

#endif  // PROVVIEW_SECUREVIEW_BNB_ORACLE_H_
