// Primal network simplex for min-cost flow.
//
// This is the production solver used by the D-phase. The paper's complexity
// citation [9] (Goldberg/Grigoriadis/Tarjan) is a network-simplex variant;
// like LEMON's implementation we use a spanning-tree basis with big-M
// artificial arcs rooted at a virtual node and the "strongly feasible"
// leaving-arc tie-break that prevents cycling.
//
// Performance architecture:
//  - The basis is a rooted spanning tree in flat per-node arrays: parent,
//    predecessor arc and its direction, dual, and LEMON's preorder thread
//    (thread / rev_thread) with each subtree's size (succ_num) and last
//    node (last_succ). No per-node containers; a subtree is one thread
//    segment.
//  - A pivot finds the cycle's join by climbing from the side with the
//    smaller subtree (no mark array), reverses the tree path from the
//    entering arc's endpoint to the leaving arc in place, splices the
//    moved subtree's segment after its new parent, and applies the
//    subtree's constant dual shift in one linear walk along the thread.
//    Sizes and last nodes are repaired along the cycle and the reversed
//    path (last nodes also up the ancestors that shared one), never over
//    the whole subtree.
//  - Candidate-list pricing keeps a shortlist of violating arcs between
//    full scans (LEMON's CandidateListPivotRule), which suits the deep
//    chain-heavy networks the D-phase produces.
//  - All solver state can live in a caller-owned McfWorkspace so repeated
//    solves (100 D-phase iterations on one netlist) never reallocate.
//
// The pivot sequence depends only on the instance: the entering arc comes
// from the pricing scan, the leaving arc from the strongly-feasible
// tie-break over the cycle, and both read only tree facts (parent, pred,
// pi, the cycle's nodes bottom-up), never how the tree is stored. The pin
// tests in tests/workspace_test.cc hold the pivot counts and solution
// hashes fixed.
//
// All arithmetic is exact int64 (the D-phase integerizes its costs by
// power-of-ten scaling per §2.3.1 before calling this).
#pragma once

#include "mcf/mcf.h"
#include "mcf/workspace.h"

namespace mft {

struct NetworkSimplexOptions {
  /// Hard safety cap on pivots (guards against a cycling bug, not expected
  /// to trigger). 0 picks 50*m + 1000.
  std::int64_t max_pivots = 0;
};

/// Solves `p` to optimality. Returns flows, total cost, and node potentials
/// satisfying the contract documented in mcf.h. If `ws` is non-null, all
/// solver arrays live in (and are reused from) the workspace,
/// `ws->ns_pivots` reports the pivot count of this run, and the run's
/// pivots are added to `ws->ns_pivots_total`.
McfSolution solve_network_simplex(const McfProblem& p,
                                  const NetworkSimplexOptions& opt = {},
                                  McfWorkspace* ws = nullptr);

}  // namespace mft
