// Reusable solver workspace for the min-cost-flow layer.
//
// Every D-phase call solves one flow instance; MINFLOTRANSIT runs up to 100
// of them back to back on the same topology. Before this arena existed each
// solve reallocated every parallel array (tail/head/cap/cost/flow/state and
// the whole spanning-tree basis) from scratch — pure allocator churn on the
// hot path. A caller that owns an McfWorkspace across calls pays the
// allocation once; subsequent solves only overwrite.
//
// The workspace is plain data: no invariants survive between solves except
// vector capacity and the solve stats. Passing nullptr everywhere keeps the
// old allocate-per-call behavior.
#pragma once

#include <cstdint>
#include <vector>

#include "mcf/mcf.h"

namespace mft {

struct McfWorkspace {
  // --- Network simplex: parallel arrays over user + artificial arcs ------
  std::vector<NodeId> tail, head;
  std::vector<Flow> cap, flow;
  std::vector<Cost> cost;
  std::vector<int> state;

  // Spanning-tree basis over nodes 0..n, rooted at the virtual node n.
  // All flat per-node arrays; the thread is a circular preorder list, so a
  // subtree is the thread segment from its root to its last successor.
  std::vector<Cost> pi;             ///< node duals
  std::vector<NodeId> parent;       ///< tree parent (kInvalidNode at root)
  std::vector<ArcId> pred;          ///< tree arc to the parent
  std::vector<int> pred_dir;        ///< whether `pred` points down or up
  std::vector<NodeId> thread;       ///< preorder successor
  std::vector<NodeId> rev_thread;   ///< preorder predecessor
  std::vector<int> succ_num;        ///< subtree size, the node included
  std::vector<NodeId> last_succ;    ///< last node of the subtree's segment

  // Pricing + pivot scratch.
  std::vector<ArcId> candidates;  ///< candidate-list pricing shortlist
  std::vector<NodeId> path_first, path_second;  ///< pivot cycle halves
  std::vector<NodeId> dirty_revs;  ///< thread links rewritten by a pivot

  // --- Successive shortest paths: residual network + Dijkstra scratch ----
  std::vector<NodeId> res_to;
  std::vector<Flow> res_cap;
  std::vector<Cost> res_cost;
  std::vector<std::vector<int>> res_adj;
  std::vector<Flow> excess;
  std::vector<Cost> dist, johnson_pi;
  std::vector<int> pred_arc;
  std::vector<char> settled;

  // --- Solve stats ---------------------------------------------------------
  std::int64_t ns_pivots = 0;          ///< network-simplex pivots, last solve
  std::int64_t ns_pivots_total = 0;    ///< ... summed since reset_stats()
  std::int64_t ssp_augmentations = 0;  ///< SSP augmentations, last solve

  /// Zero the solve stats (capacity and cached arrays are kept). Called by
  /// SizingContext between batch jobs so per-job stats start clean.
  void reset_stats() {
    ns_pivots = 0;
    ns_pivots_total = 0;
    ssp_augmentations = 0;
  }
};

}  // namespace mft
