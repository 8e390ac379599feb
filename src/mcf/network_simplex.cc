#include "mcf/network_simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/fault.h"

namespace mft {
namespace {

// Arc states. kLower/kUpper encode the sign used in the violation test
// state * reduced_cost < 0.
enum State : int { kStateUpper = -1, kStateTree = 0, kStateLower = 1 };

// Direction of a node's predecessor (tree) arc.
enum Dir : int {
  kDirDown = 0,  // arc points parent -> node
  kDirUp = 1,    // arc points node -> parent
};

constexpr std::size_t at(int i) { return static_cast<std::size_t>(i); }

// The solver proper. All state lives in the McfWorkspace so a caller that
// keeps one across solves never reallocates; the class only binds
// references and runs the algorithm.
class Simplex {
 public:
  Simplex(const McfProblem& p, const NetworkSimplexOptions& opt,
          McfWorkspace& ws)
      : p_(p), ws_(ws), n_(p.num_nodes()), root_(p.num_nodes()) {
    const int m_user = p.num_arcs();
    m_ = m_user + n_;  // user arcs + one artificial arc per node

    ws_.tail.resize(at(m_));
    ws_.head.resize(at(m_));
    ws_.cap.resize(at(m_));
    ws_.cost.resize(at(m_));
    // Raw-pointer views of the workspace arrays: no vector sizes change
    // after this point, and the pointers let the optimizer keep hot-loop
    // loads in registers instead of re-reading through the vector headers.
    tail_p_ = ws_.tail.data();
    head_p_ = ws_.head.data();
    cap_p_ = ws_.cap.data();
    cost_p_ = ws_.cost.data();
    for (ArcId a = 0; a < m_user; ++a) {
      const McfArc& arc = p.arc(a);
      tail_p_[at(a)] = arc.tail;
      head_p_[at(a)] = arc.head;
      cap_p_[at(a)] = arc.capacity;
      cost_p_[at(a)] = arc.cost;
    }
    // Big-M exceeding any simple-path cost so artificial flow is driven out
    // whenever the instance is feasible.
    art_cost_ = (p.max_abs_cost() + 1) * static_cast<Cost>(n_ + 1);

    ws_.flow.assign(at(m_), 0);
    ws_.state.assign(at(m_), kStateLower);
    ws_.pi.assign(at(n_ + 1), 0);
    ws_.parent.assign(at(n_ + 1), kInvalidNode);
    ws_.pred.assign(at(n_ + 1), kInvalidArc);
    ws_.pred_dir.assign(at(n_ + 1), kDirDown);
    ws_.thread.resize(at(n_ + 1));
    ws_.rev_thread.resize(at(n_ + 1));
    ws_.succ_num.assign(at(n_ + 1), 1);
    ws_.last_succ.resize(at(n_ + 1));
    flow_p_ = ws_.flow.data();
    state_p_ = ws_.state.data();
    pi_p_ = ws_.pi.data();
    parent_p_ = ws_.parent.data();
    pred_p_ = ws_.pred.data();
    pred_dir_p_ = ws_.pred_dir.data();
    thread_p_ = ws_.thread.data();
    rev_thread_p_ = ws_.rev_thread.data();
    succ_num_p_ = ws_.succ_num.data();
    last_succ_p_ = ws_.last_succ.data();
    ws_.ns_pivots = 0;

    // Initial basis: a star of artificial arcs around the virtual root,
    // oriented so each carries |supply(v)| of nonnegative flow. Its
    // preorder thread is root, 0, 1, ..., n-1, back to the root.
    for (NodeId v = 0; v < n_; ++v) {
      const Flow s = p.supply(v);
      const ArcId a = static_cast<ArcId>(m_user + v);
      if (s >= 0) {
        tail_p_[at(a)] = v;
        head_p_[at(a)] = root_;
        flow_p_[at(a)] = s;
        pred_dir_p_[at(v)] = kDirUp;
        pi_p_[at(v)] = art_cost_;
      } else {
        tail_p_[at(a)] = root_;
        head_p_[at(a)] = v;
        flow_p_[at(a)] = -s;
        pred_dir_p_[at(v)] = kDirDown;
        pi_p_[at(v)] = -art_cost_;
      }
      cap_p_[at(a)] = kInfFlow;
      cost_p_[at(a)] = art_cost_;
      state_p_[at(a)] = kStateTree;
      parent_p_[at(v)] = root_;
      pred_p_[at(v)] = a;
      thread_p_[at(v)] = v + 1;
      rev_thread_p_[at(v + 1)] = v;
      last_succ_p_[at(v)] = v;
    }
    thread_p_[at(root_)] = 0;
    rev_thread_p_[0] = root_;
    succ_num_p_[at(root_)] = n_ + 1;
    last_succ_p_[at(root_)] = n_ - 1;

    list_size_ = std::max(
        30, static_cast<int>(1.25 * std::sqrt(static_cast<double>(m_))));
    minor_limit_ = std::max(3, list_size_ / 10);
    ws_.candidates.resize(at(list_size_));
    max_pivots_ = opt.max_pivots > 0
                      ? opt.max_pivots
                      : 50 * static_cast<std::int64_t>(m_) + 1000;
  }

  McfSolution run() {
    McfSolution sol;
    if (p_.total_supply() != 0) {
      sol.status = McfStatus::kInfeasible;
      return sol;
    }
    ArcId in_arc;
    while ((in_arc = candidate_list_pivot()) != kInvalidArc) {
      MFT_CHECK_MSG(++ws_.ns_pivots <= max_pivots_,
                    "network simplex exceeded pivot safety cap");
      if (!pivot(in_arc)) {
        sol.status = McfStatus::kUnbounded;
        return sol;
      }
    }
    // Any residual artificial flow means the supplies cannot be routed.
    for (ArcId a = p_.num_arcs(); a < m_; ++a) {
      if (flow_p_[at(a)] != 0) {
        sol.status = McfStatus::kInfeasible;
        return sol;
      }
    }
    sol.status = McfStatus::kOptimal;
    sol.flow.assign(ws_.flow.begin(), ws_.flow.begin() + p_.num_arcs());
    sol.potential.assign(ws_.pi.begin(), ws_.pi.begin() + n_);
    sol.total_cost = flow_cost(p_, sol.flow);
    return sol;
  }

 private:
  // Reduced cost under the dual contract of mcf.h.
  Cost reduced_cost(ArcId a) const {
    return cost_p_[at(a)] - pi_p_[at(tail_p_[at(a)])] +
           pi_p_[at(head_p_[at(a)])];
  }

  // state * reduced_cost < 0 means the arc profitably enters the basis.
  Cost violation(ArcId a) const {
    return -static_cast<Cost>(state_p_[at(a)]) * reduced_cost(a);
  }

  // Candidate-list pricing: serve pivots from a shortlist of violating
  // arcs, dropping entries whose violation was cured by earlier pivots;
  // rebuild the shortlist with a full cyclic scan when it runs dry or
  // after `minor_limit_` minor pivots. The loops run on locals so that
  // stores into the shortlist cannot force the scan state back to memory.
  ArcId candidate_list_pivot() {
    ArcId* const list = ws_.candidates.data();
    Cost best_violation = 0;
    ArcId best = kInvalidArc;
    if (minor_count_ < minor_limit_ && list_len_ > 0) {
      ++minor_count_;
      const int len = list_len_;
      int keep = 0;
      for (int i = 0; i < len; ++i) {
        const ArcId a = list[i];
        const Cost v = violation(a);
        if (v <= 0) continue;  // cured; drop from the shortlist
        list[keep++] = a;
        if (v > best_violation) {
          best_violation = v;
          best = a;
        }
      }
      list_len_ = keep;
      if (best != kInvalidArc) return best;
    }
    // Major iteration: rebuild the shortlist from a full cyclic scan.
    minor_count_ = 1;
    const int m = m_;
    const int capacity = list_size_;
    int len = 0;
    ArcId next = next_arc_;
    for (int scanned = 0; scanned < m; ++scanned) {
      const ArcId a = next;
      next = next + 1 == m ? 0 : next + 1;
      const Cost v = violation(a);
      if (v <= 0) continue;
      list[len++] = a;
      if (v > best_violation) {
        best_violation = v;
        best = a;
      }
      if (len == capacity) break;
    }
    next_arc_ = next;
    list_len_ = len;
    return best;
  }

  // Walks u and v up to their lowest common ancestor, the cycle's join.
  // An ancestor's subtree is strictly larger, so the side with the smaller
  // subtree climbs. Records the nodes strictly below the join on each side
  // (bottom-up) so the leaving-arc search and the flow update replay
  // linear arrays instead of chasing parent pointers again.
  NodeId collect_cycle(NodeId u, NodeId v) {
    auto& a = ws_.path_first;
    auto& b = ws_.path_second;
    a.clear();
    b.clear();
    while (u != v) {
      if (succ_num_p_[at(u)] < succ_num_p_[at(v)]) {
        a.push_back(u);
        u = parent_p_[at(u)];
      } else {
        b.push_back(v);
        v = parent_p_[at(v)];
      }
    }
    return u;
  }

  // Executes one pivot on `in_arc`. Returns false if the cycle is
  // cost-reducing and uncapacitated (unbounded problem).
  bool pivot(ArcId in_arc) {
    // Cycle orientation: `delta` units travel join -> first -> (in_arc
    // residual) -> second -> join.
    NodeId first, second;
    if (state_p_[at(in_arc)] == kStateLower) {
      first = tail_p_[at(in_arc)];
      second = head_p_[at(in_arc)];
    } else {
      first = head_p_[at(in_arc)];
      second = tail_p_[at(in_arc)];
    }
    const NodeId join = collect_cycle(first, second);
    const auto& path_first = ws_.path_first;
    const auto& path_second = ws_.path_second;

    // Residual of the entering arc itself.
    Flow delta = state_p_[at(in_arc)] == kStateLower
                     ? cap_p_[at(in_arc)] - flow_p_[at(in_arc)]
                     : flow_p_[at(in_arc)];
    int result = 0;  // 0: in_arc leaves; 1/2: a tree arc on either path
    NodeId u_out = kInvalidNode;

    // First-side path: cycle direction is parent -> child (toward `first`).
    for (const NodeId u : path_first) {
      const ArcId e = pred_p_[at(u)];
      const Flow f = flow_p_[at(e)];
      const Flow residual =
          pred_dir_p_[at(u)] == kDirDown ? cap_p_[at(e)] - f : f;
      if (residual < delta) {
        delta = residual;
        u_out = u;
        result = 1;
      }
    }
    // Second-side path: cycle direction is child -> parent. The recorded
    // path runs bottom-up, so `<=` implements the strongly-feasible
    // tie-break: among equal residuals the arc closest to the join leaves.
    for (const NodeId u : path_second) {
      const ArcId e = pred_p_[at(u)];
      const Flow f = flow_p_[at(e)];
      const Flow residual =
          pred_dir_p_[at(u)] == kDirUp ? cap_p_[at(e)] - f : f;
      if (residual <= delta) {
        delta = residual;
        u_out = u;
        result = 2;
      }
    }

    // Any genuine blocking residual is bounded by real capacities or total
    // supply; half of kInfFlow can only be reached via uncapacitated arcs,
    // i.e. a negative cycle with unbounded improving direction.
    if (delta >= kInfFlow / 2) return false;

    // Apply the flow change around the cycle.
    if (delta != 0) {
      flow_p_[at(in_arc)] +=
          state_p_[at(in_arc)] == kStateLower ? delta : -delta;
      for (const NodeId u : path_first)
        flow_p_[at(pred_p_[at(u)])] +=
            pred_dir_p_[at(u)] == kDirDown ? delta : -delta;
      for (const NodeId u : path_second)
        flow_p_[at(pred_p_[at(u)])] +=
            pred_dir_p_[at(u)] == kDirUp ? delta : -delta;
    }

    if (result == 0) {
      // The entering arc saturates without displacing a tree arc.
      state_p_[at(in_arc)] =
          state_p_[at(in_arc)] == kStateLower ? kStateUpper : kStateLower;
      return true;
    }

    // Swap the basis: `out_arc` (pred of u_out) leaves, in_arc enters.
    const ArcId out_arc = pred_p_[at(u_out)];
    state_p_[at(out_arc)] = flow_p_[at(out_arc)] == 0 ? kStateLower
                                                      : kStateUpper;
    state_p_[at(in_arc)] = kStateTree;

    const NodeId u_in = result == 1 ? first : second;  // endpoint inside
    const NodeId v_in = u_in == tail_p_[at(in_arc)] ? head_p_[at(in_arc)]
                                                    : tail_p_[at(in_arc)];
    // The tree arcs inside the cut-off subtree are unchanged, so every dual
    // in it shifts by the same constant: the one that makes `in_arc` tight.
    const Cost new_pi_in = tail_p_[at(in_arc)] == v_in
                               ? pi_p_[at(v_in)] - cost_p_[at(in_arc)]
                               : pi_p_[at(v_in)] + cost_p_[at(in_arc)];
    const Cost dpi = new_pi_in - pi_p_[at(u_in)];
    move_subtree(u_in, v_in, u_out, join, in_arc);
    // The moved subtree is now the thread segment from u_in to its last
    // successor: one linear walk applies the shift.
    const NodeId end = thread_p_[at(last_succ_p_[at(u_in)])];
    for (NodeId v = u_in; v != end; v = thread_p_[at(v)]) pi_p_[at(v)] += dpi;
    return true;
  }

  // Cuts the subtree of `u_out` (whose pred arc leaves the basis) and
  // hangs it from `v_in` via `in_arc`, re-rooted at `u_in`; the update of
  // LEMON's NetworkSimplex. The stem, the tree path u_in -> u_out,
  // reverses in place. The thread stays a preorder of the whole tree: the
  // moved subtree becomes one segment right after v_in, made of u_in's old
  // segment followed by each stem node's old segment minus the part
  // already placed. succ_num and last_succ are repaired on the stem, on
  // both cycle sides, and (last_succ) up the ancestors that shared a last
  // node with the moved segment, never over the whole subtree.
  void move_subtree(NodeId u_in, NodeId v_in, NodeId u_out, NodeId join,
                    ArcId in_arc) {
    NodeId* const parent = parent_p_;
    ArcId* const pred = pred_p_;
    int* const pred_dir = pred_dir_p_;
    NodeId* const thread = thread_p_;
    NodeId* const rev_thread = rev_thread_p_;
    int* const succ_num = succ_num_p_;
    NodeId* const last_succ = last_succ_p_;
    auto dir = [this](ArcId a, NodeId par) {
      return tail_p_[at(a)] == par ? kDirDown : kDirUp;
    };

    const NodeId old_rev_thread = rev_thread[at(u_out)];
    const int old_succ_num = succ_num[at(u_out)];
    const NodeId old_last_succ = last_succ[at(u_out)];
    const NodeId v_out = parent[at(u_out)];

    if (u_in == u_out) {
      parent[at(u_in)] = v_in;
      pred[at(u_in)] = in_arc;
      pred_dir[at(u_in)] = dir(in_arc, v_in);
      if (thread[at(v_in)] != u_out) {
        // Splice the segment u_out..old_last_succ out, then in after v_in.
        NodeId after = thread[at(old_last_succ)];
        thread[at(old_rev_thread)] = after;
        rev_thread[at(after)] = old_rev_thread;
        after = thread[at(v_in)];
        thread[at(v_in)] = u_out;
        rev_thread[at(u_out)] = v_in;
        thread[at(old_last_succ)] = after;
        rev_thread[at(after)] = old_last_succ;
      }
    } else {
      // What follows the moved segment. If u_out directly followed v_in,
      // removing the segment exposes the node after its old end.
      const NodeId thread_continue = old_rev_thread == v_in
                                         ? thread[at(old_last_succ)]
                                         : thread[at(v_in)];
      NodeId stem = u_in;
      NodeId par_stem = v_in;
      NodeId last = last_succ[at(u_in)];  // end of what is placed so far
      NodeId after = thread[at(last)];
      thread[at(v_in)] = u_in;
      auto& dirty = ws_.dirty_revs;  // nodes whose thread successor moved
      dirty.clear();
      dirty.push_back(v_in);
      while (stem != u_out) {
        // Continue with the next stem node, after cutting the placed
        // segment out of its old place in the thread.
        const NodeId next_stem = parent[at(stem)];
        thread[at(last)] = next_stem;
        dirty.push_back(last);
        const NodeId before = rev_thread[at(stem)];
        thread[at(before)] = after;
        rev_thread[at(after)] = before;
        parent[at(stem)] = par_stem;
        par_stem = stem;
        stem = next_stem;
        // The next stem node's rest ends where its old segment ended,
        // unless that end was inside the part just placed.
        last = last_succ[at(stem)] == last_succ[at(par_stem)]
                   ? rev_thread[at(par_stem)]
                   : last_succ[at(stem)];
        after = thread[at(last)];
      }
      parent[at(u_out)] = par_stem;
      thread[at(last)] = thread_continue;
      rev_thread[at(thread_continue)] = last;
      last_succ[at(u_out)] = last;
      if (old_rev_thread != v_in) {
        thread[at(old_rev_thread)] = after;
        rev_thread[at(after)] = old_rev_thread;
      }
      for (const NodeId u : dirty) rev_thread[at(thread[at(u)])] = u;

      // Down the reversed stem from u_out: each node takes its new
      // parent's old pred arc, and subtree sizes accumulate from the top.
      int size = 0;
      const NodeId stem_last = last_succ[at(u_out)];
      for (NodeId u = u_out, p = parent[at(u)]; u != u_in;
           u = p, p = parent[at(u)]) {
        pred[at(u)] = pred[at(p)];
        pred_dir[at(u)] = dir(pred[at(u)], p);
        size += succ_num[at(u)] - succ_num[at(p)];
        succ_num[at(u)] = size;
        last_succ[at(p)] = stem_last;
      }
      pred[at(u_in)] = in_arc;
      pred_dir[at(u_in)] = dir(in_arc, v_in);
      succ_num[at(u_in)] = old_succ_num;
    }

    // Last successors: ancestors of v_in whose subtree ended at v_in now
    // end with the moved segment. Ancestors of v_out whose subtree ended
    // with the segment now end just before its old place, or with the
    // segment again where it went back to the same place; the walk stops
    // at the join if the first loop already gave the join its new end.
    const NodeId up_limit_out =
        last_succ[at(join)] == v_in ? join : kInvalidNode;
    const NodeId last_succ_out = last_succ[at(u_out)];
    for (NodeId u = v_in; u != kInvalidNode && last_succ[at(u)] == v_in;
         u = parent[at(u)])
      last_succ[at(u)] = last_succ_out;
    if (join != old_rev_thread && v_in != old_rev_thread) {
      for (NodeId u = v_out;
           u != up_limit_out && last_succ[at(u)] == old_last_succ;
           u = parent[at(u)])
        last_succ[at(u)] = old_rev_thread;
    } else if (last_succ_out != old_last_succ) {
      for (NodeId u = v_out;
           u != up_limit_out && last_succ[at(u)] == old_last_succ;
           u = parent[at(u)])
        last_succ[at(u)] = last_succ_out;
    }
    // Subtree sizes along both cycle sides below the join.
    for (NodeId u = v_in; u != join; u = parent[at(u)])
      succ_num[at(u)] += old_succ_num;
    for (NodeId u = v_out; u != join; u = parent[at(u)])
      succ_num[at(u)] -= old_succ_num;
  }

  const McfProblem& p_;
  McfWorkspace& ws_;
  NodeId* tail_p_ = nullptr;
  NodeId* head_p_ = nullptr;
  Flow* cap_p_ = nullptr;
  Flow* flow_p_ = nullptr;
  Cost* cost_p_ = nullptr;
  int* state_p_ = nullptr;
  Cost* pi_p_ = nullptr;
  NodeId* parent_p_ = nullptr;
  ArcId* pred_p_ = nullptr;
  int* pred_dir_p_ = nullptr;
  NodeId* thread_p_ = nullptr;
  NodeId* rev_thread_p_ = nullptr;
  int* succ_num_p_ = nullptr;
  NodeId* last_succ_p_ = nullptr;
  const int n_;
  const NodeId root_;
  int m_ = 0;
  Cost art_cost_ = 0;
  int list_size_ = 0;
  int list_len_ = 0;
  int minor_limit_ = 0;
  int minor_count_ = 0;
  std::int64_t max_pivots_ = 0;
  ArcId next_arc_ = 0;
};

}  // namespace

McfSolution solve_network_simplex(const McfProblem& p,
                                  const NetworkSimplexOptions& opt,
                                  McfWorkspace* ws) {
  MFT_FAULT_POINT("flow.solve");
  if (p.num_nodes() == 0) {
    if (ws) ws->ns_pivots = 0;
    McfSolution sol;
    sol.status = McfStatus::kOptimal;
    return sol;
  }
  McfWorkspace local;
  McfWorkspace& w = ws ? *ws : local;
  McfSolution sol = Simplex(p, opt, w).run();
  w.ns_pivots_total += w.ns_pivots;
  return sol;
}

}  // namespace mft
