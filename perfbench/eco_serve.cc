// eco_serve: open loop into an in-process SizingDaemon (2 workers,
// journal on) through handle_line, with ECO sessions opened during
// set-up. Seeded Poisson arrivals of three op kinds:
//  - writes: load-edit, pin-toggle and target-nudge resizes against the
//    sessions (answered synchronously on the request thread);
//  - reads: zero-delta resizes, which must be bit-identical fixpoints;
//  - cold submits of small ISCAS circuits (run by the engine workers).
// Every op is timed from its due time to its terminal result event, so an
// op stalled behind a slow resize pays for the stall.
//
// The mix runs for the whole run, in chunks with a set-up repetition (a
// throwaway daemon) between them, so setup_s samples the host over the
// whole run. Idle-priority spinners (KeepWarm) keep the CPUs from idling
// between ops throughout.
//
// Every write and read is replayed afterwards on the benchmark's own
// ResizeSession per session (public API: adopt the reference base
// solution, then resize with the same deltas): the daemon's mode,
// fall-back flag and sizes_hash must equal the replay's, and the replayed
// sizes are re-timed with run_sta on the session's edited network.
//
// Inputs: the workload seed sets the arrival times, the order of the write
// kinds and submit circuits, the sessions the resizes hit, and the edited
// and pinned vertices; the mix proportions and the rates are fixed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common.h"
#include "engine/daemon.h"
#include "engine/runner.h"
#include "gen/iscas_analog.h"
#include "replay.h"
#include "sizing/resize.h"
#include "stats.h"
#include "timing/lowering.h"
#include "timing/sta.h"
#include "util/str.h"

namespace perfbench {

namespace {

constexpr double kRatio = 0.8;
constexpr int kSessions = 4;
const char* const kSessionCircuit = "c880";
/// Submit circuits and write kinds come in fixed proportions (see Dealer):
/// the submit median lands inside the c880 submits and the tail inside
/// the c1908 submits in every run; the write median lands inside the warm
/// target nudges and the tail inside the cold resizes (load edits and pin
/// toggles whose band is too large or whose warm answer failed).
const char* const kSubmitCircuits[] = {"c432", "c880", "c1908"};
const std::vector<std::pair<std::string, int>> kSubmitMix = {
    {"c432", 5}, {"c880", 11}, {"c1908", 4}};
const std::vector<std::pair<std::string, int>> kWriteMix = {
    {"target", 10}, {"load", 7}, {"pin", 3}};

/// The mix, ops per second: the request thread is ~10 % busy with writes
/// and the two workers ~10 % busy with submits, so a 36 s run gathers
/// ~290 writes and ~290 submits while head-of-line waits stay rare.
constexpr double kWriteRate = 8.0;
constexpr double kReadRate = 4.0;
constexpr double kSubmitRate = 8.0;
constexpr double kRate = kWriteRate + kReadRate + kSubmitRate;
constexpr double kLoadDelta = 0.01;    ///< b change per edited vertex
constexpr double kTargetNudge = 0.005; ///< relative target change
/// Every op is sent unless the generator falls this far behind, which
/// only a badly broken build does; the unsent ops then count as failed.
constexpr double kGiveUp = 20.0;
/// The run is sent in this many chunks, with one set-up repetition after
/// each (so setup_s is the median of kChunks + 1 set-ups).
constexpr int kChunks = 12;

enum class Kind { kSubmit, kWrite, kRead };

struct Op {
  Kind kind = Kind::kSubmit;
  double due = 0.0;    ///< offset within the chunk, then absolute
  std::string line;    ///< the request
  int session = -1;    ///< index into the sessions (writes and reads)
  std::string what;    ///< write kind, or the submit circuit
  mft::ResizeDelta delta;  ///< writes and reads: the delta the line encodes
  bool sent = false;
  double lag = 0.0;      ///< how late the generator sent it
  double ingress = 0.0;  ///< seconds inside handle_line
  double done = -1.0;    ///< time of the terminal event
  int terminal = 0;      ///< terminal events seen
  std::string result;    ///< the terminal event
  std::string replay;    ///< writes and reads: "" or the replay mismatch
};

/// Raw token of "key":<token> in a flat JSON line ("" when absent).
std::string field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t i = at + needle.size();
  if (i < line.size() && line[i] == '"') {
    const std::size_t end = line.find('"', i + 1);
    return line.substr(i + 1, end - i - 1);
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(i, end - i);
}

double num(const std::string& line, const char* key) {
  return std::strtod(field(line, key).c_str(), nullptr);
}

/// Event lines with their arrival times, attributed to ops by "id".
class Capture {
 public:
  mft::SizingDaemon::Emit emit() {
    return [this](const std::string& line) {
      const double t = now_s();
      std::lock_guard<std::mutex> lock(mu_);
      lines_.emplace_back(t, line);
    };
  }
  std::vector<std::pair<double, std::string>> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(lines_);
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<double, std::string>> lines_;
};

struct Session {
  std::uint64_t sid = 0;
  int pinned = -1;
  double target_sign = 1.0;
  std::string base_hash;
};

/// The benchmark's own copies of the daemon's circuits, for generating
/// deltas and for the reference solves the outputs are checked against.
struct Reference {
  std::map<std::string, std::unique_ptr<mft::LoweredCircuit>> nets;
  std::map<std::string, std::string> hash;  ///< reference sizes_hash
  std::vector<double> session_sizes;        ///< reference session solution
  double session_target = 0.0;
  std::vector<std::vector<int>> by_level;   ///< non-source vertices
  /// Geometric mean over the submit circuits of MINFLOTRANSIT area over
  /// TILOS area; the daemon's answers are checked bit-identical to these.
  double area_ratio = 0.0;
};

const mft::SizingNetwork& lowered(Reference& ref, const std::string& name) {
  auto& slot = ref.nets[name];
  if (!slot)
    slot = std::make_unique<mft::LoweredCircuit>(
        mft::lower_gate_level(mft::make_iscas_analog(name), mft::Tech{}));
  return slot->net;
}

/// Solves every circuit the daemon will serve through the engine and
/// checks the answers; the daemon's results must match them bit for bit.
void reference_solves(Reference& ref, Report& rep) {
  std::vector<std::string> names(std::begin(kSubmitCircuits),
                                 std::end(kSubmitCircuits));
  names.push_back(kSessionCircuit);
  std::vector<const mft::SizingNetwork*> nets;
  std::vector<mft::SizingJob> jobs;
  for (const std::string& n : names) {
    nets.push_back(&lowered(ref, n));
    mft::SizingJob job;
    job.network = static_cast<int>(jobs.size());
    job.inner_threads = 1;
    job.target_ratio = kRatio;
    job.label = n;
    jobs.push_back(job);
  }
  mft::JobRunnerOptions ro;
  ro.threads = 2;
  ro.inner_threads = 1;
  const mft::BatchResult b = mft::JobRunner(ro).run(nets, jobs);
  std::vector<double> ratios;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const mft::JobResult& r = b.results[i];
    const std::string err = check_job(*nets[i], r);
    if (!err.empty()) rep.fail("reference " + err);
    ref.hash[names[i]] = std::to_string(sizes_hash(r.result.sizes));
    if (i + 1 == names.size()) {  // the session circuit, added last
      ref.session_sizes = r.result.sizes;
      ref.session_target = r.target;
      continue;
    }
    ratios.push_back(r.result.area / r.result.initial.area);
    std::printf("  reference %-5s target %.6g  area %.6g / TILOS %.6g\n",
                names[i].c_str(), r.target, r.result.area,
                r.result.initial.area);
  }
  ref.area_ratio = geomean(ratios);
  const mft::SizingNetwork& sn = lowered(ref, kSessionCircuit);
  ref.by_level.assign(static_cast<std::size_t>(sn.num_levels()), {});
  for (int v = 0; v < sn.num_vertices(); ++v)
    if (!sn.is_source(v))
      ref.by_level[static_cast<std::size_t>(sn.level_of()[v])].push_back(v);
  ref.by_level.erase(
      std::remove_if(ref.by_level.begin(), ref.by_level.end(),
                     [](const std::vector<int>& l) { return l.empty(); }),
      ref.by_level.end());
}

std::string submit_line(const std::string& circuit, std::uint64_t seed,
                        const std::string& id, bool session) {
  return mft::strf(
      "{\"op\":\"submit\",\"circuit\":\"%s\",\"ratio\":%.17g,"
      "\"inner_threads\":1,\"seed\":%llu,\"id\":\"%s\"%s}",
      circuit.c_str(), kRatio, static_cast<unsigned long long>(seed),
      id.c_str(), session ? ",\"session\":true" : "");
}

/// The daemon with its sessions open and every served circuit built.
struct Served {
  Capture capture;
  std::unique_ptr<mft::SizingDaemon> daemon;
  std::vector<Session> sessions;
  int setup_ops = 0;
  int setup_failures = 0;
};

/// Daemon construction, base-session solves and circuit warm-up; the
/// base results and warm-up submits are checked against the reference.
std::unique_ptr<Served> open_daemon(const Reference& ref,
                                    const std::string& journal, Rng& rng) {
  std::filesystem::remove(journal);
  auto s = std::make_unique<Served>();
  mft::DaemonOptions opt;
  opt.engine.threads = 2;
  opt.engine.inner_threads = 1;
  opt.journal_path = journal;
  s->daemon = std::make_unique<mft::SizingDaemon>(opt, s->capture.emit());
  for (int k = 0; k < kSessions; ++k)
    s->daemon->handle_line(submit_line(kSessionCircuit, 1 + rng.below(1 << 30),
                                       "base" + std::to_string(k), true));
  for (const char* c : kSubmitCircuits)
    s->daemon->handle_line(submit_line(c, 1 + rng.below(1 << 30),
                                       std::string("warm-") + c, false));
  s->daemon->drain();
  s->sessions.resize(kSessions);
  for (const auto& [t, line] : s->capture.take()) {
    const std::string id = field(line, "id");
    const std::string event = field(line, "event");
    if (event == "accepted" && id.rfind("base", 0) == 0) {
      s->sessions[std::stoul(id.substr(4))].sid =
          std::stoull(field(line, "session"));
    } else if (event == "result") {
      ++s->setup_ops;
      const bool base = id.rfind("base", 0) == 0;
      const std::string circuit = base ? kSessionCircuit : id.substr(5);
      const auto it = ref.hash.find(circuit);
      const std::string hash = field(line, "sizes_hash");
      if (field(line, "status") != "ok" || it == ref.hash.end() ||
          hash != it->second) {
        ++s->setup_failures;
        std::printf("CHECK FAILED: set-up op %s: %s\n", id.c_str(),
                    line.c_str());
      } else if (base) {
        s->sessions[std::stoul(id.substr(4))].base_hash = hash;
      }
    }
  }
  return s;
}

/// Deals names in fixed proportions: each block is a seeded shuffle of
/// count copies of every name, so every run gets the same mix, only in
/// another order.
class Dealer {
 public:
  explicit Dealer(const std::vector<std::pair<std::string, int>>& mix) {
    for (const auto& [name, count] : mix) block_.insert(block_.end(), count, name);
  }
  const std::string& next(Rng& rng) {
    if (slot_ == 0)
      for (std::size_t i = block_.size() - 1; i > 0; --i)
        std::swap(block_[i], block_[static_cast<std::size_t>(
                                 rng.below(static_cast<int>(i) + 1))]);
    const std::string& out = block_[slot_];
    slot_ = (slot_ + 1) % block_.size();
    return out;
  }

 private:
  std::vector<std::string> block_;
  std::size_t slot_ = 0;
};

/// Appends one chunk's schedule: Poisson arrivals of the mix for
/// `duration` seconds.
void generate(Rng& rng, const Reference& ref, std::vector<Session>& sessions,
              double duration, Dealer& submits, Dealer& writes,
              std::vector<Op>& ops) {
  for (double t = rng.exponential(1.0 / kRate); t < duration;
       t += rng.exponential(1.0 / kRate)) {
    Op op;
    op.due = t;
    const std::string id = "o" + std::to_string(ops.size());
    const double u = rng.uniform() * kRate;
    if (u < kSubmitRate) {
      op.kind = Kind::kSubmit;
      op.what = submits.next(rng);
      op.line = submit_line(op.what, 1 + rng.below(1 << 30), id, false);
      ops.push_back(std::move(op));
      continue;
    }
    op.session = rng.below(kSessions);
    Session& s = sessions[static_cast<std::size_t>(op.session)];
    std::string delta;
    if (u < kSubmitRate + kReadRate) {
      op.kind = Kind::kRead;
    } else {
      op.kind = Kind::kWrite;
      op.what = writes.next(rng);
      if (op.what == "target") {
        op.delta.target_delay =
            ref.session_target * (1.0 + kTargetNudge * s.target_sign);
        delta = mft::strf(",\"target\":%.17g", op.delta.target_delay);
        s.target_sign = -s.target_sign;
      } else if (op.what == "pin") {
        if (s.pinned >= 0) {
          op.delta.pins.push_back(mft::ResizePin{s.pinned, 0.0});
          delta = mft::strf(",\"pins\":\"%d:0\"", s.pinned);
          s.pinned = -1;
        } else {
          const auto& level =
              ref.by_level[static_cast<std::size_t>(
                  rng.below(static_cast<int>(ref.by_level.size())))];
          s.pinned = level[static_cast<std::size_t>(
              rng.below(static_cast<int>(level.size())))];
          const double size = std::min(
              mft::Tech{}.max_size,
              ref.session_sizes[static_cast<std::size_t>(s.pinned)] * 1.02);
          op.delta.pins.push_back(mft::ResizePin{s.pinned, size});
          delta = mft::strf(",\"pins\":\"%d:%.17g\"", s.pinned, size);
        }
      } else {
        const auto& level = ref.by_level[static_cast<std::size_t>(
            rng.below(static_cast<int>(ref.by_level.size())))];
        const double b = rng.uniform() < 0.5 ? kLoadDelta : -kLoadDelta;
        const int first = rng.below(static_cast<int>(level.size()));
        std::string loads;
        for (int k = 0; k < 3 && k < static_cast<int>(level.size()); ++k) {
          const int v = level[static_cast<std::size_t>(
              (first + k) % static_cast<int>(level.size()))];
          op.delta.load_edits.push_back(mft::ResizeLoadEdit{v, b});
          loads += mft::strf("%s%d:%.17g", loads.empty() ? "" : ",", v, b);
        }
        delta = ",\"loads\":\"" + loads + "\"";
      }
    }
    op.line = mft::strf("{\"op\":\"resize\",\"session\":%llu,\"id\":\"%s\"%s}",
                        static_cast<unsigned long long>(s.sid), id.c_str(),
                        delta.c_str());
    ops.push_back(std::move(op));
  }
}

/// Runs ops [begin, end) open loop, then waits for every result. Gives
/// up once the generator falls kGiveUp behind; the rest is never sent.
void run_chunk(Served& s, std::vector<Op>& ops, std::size_t begin,
               std::size_t end) {
  const double t0 = now_s() + 0.005;
  std::vector<double> due;
  for (std::size_t i = begin; i < end; ++i) {
    ops[i].due += t0;
    due.push_back(ops[i].due);
  }
  OpenLoop loop(now_s, [](double t) {
    const double d = t - now_s();
    if (d > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(d));
  });
  loop.run(
      due,
      [&](std::size_t k) {
        Op& op = ops[begin + k];
        const double t = now_s();
        s.daemon->handle_line(op.line);
        op.ingress = now_s() - t;
      },
      kGiveUp);
  const std::vector<double> lags = loop.lags(due);
  for (std::size_t k = 0; k < lags.size(); ++k) {
    ops[begin + k].sent = true;
    ops[begin + k].lag = lags[k];
  }
  s.daemon->drain();
}

/// Attributes captured events to ops by id.
void attribute(Served& s, std::vector<Op>& ops) {
  for (const auto& [t, line] : s.capture.take()) {
    if (field(line, "event") != "result") continue;
    const std::string id = field(line, "id");
    if (id.size() < 2 || id[0] != 'o') continue;
    const std::size_t k = std::stoul(id.substr(1));
    if (k >= ops.size()) continue;
    Op& op = ops[k];
    if (++op.terminal == 1) {
      op.done = t;
      op.result = line;
    }
  }
}

/// Replays the writes and reads of every op on one ResizeSession per
/// session, each on its own thread, and records in Op::replay whether the
/// daemon's answer matches: same mode, fall-back flag and sizes_hash, and
/// the replayed sizes re-time within their target on the edited network.
/// Ops the daemon did not answer ok are skipped (they already fail).
void replay_sessions(const Reference& ref, const mft::SizingNetwork& net,
                     std::vector<Op>& ops) {
  std::vector<std::thread> threads;
  for (int k = 0; k < kSessions; ++k) {
    threads.emplace_back([&, k] {
      mft::ResizeSession rs(net);
      const mft::ResizeResult base =
          rs.adopt(ref.session_sizes, ref.session_target);
      for (Op& op : ops) {
        if (op.session != k || !op.sent || op.terminal != 1 ||
            field(op.result, "status") != "ok")
          continue;
        if (!base.ok) {
          op.replay = "replay could not adopt the base solution";
          continue;
        }
        const mft::ResizeResult rr = rs.resize(op.delta);
        const std::string& r = op.result;
        if (!rr.ok) {
          op.replay = "replay rejected the delta: " + rr.error;
        } else if (field(r, "mode") != mft::to_string(rr.mode) ||
                   (field(r, "fell_back") == "true") != rr.fell_back) {
          op.replay = mft::strf("mode %s differs from the replay's %s%s",
                                field(r, "mode").c_str(),
                                mft::to_string(rr.mode),
                                rr.fell_back ? " (fell back)" : "");
        } else if (field(r, "sizes_hash") !=
                   std::to_string(sizes_hash(rr.sizes))) {
          op.replay = "sizes differ from the replay";
        } else if (!(mft::run_sta(rs.net(), rr.sizes).critical_path <=
                     rr.target * (1.0 + 1e-9))) {
          op.replay = "replayed sizes re-time above the target";
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Output checks of every op, in op order: one terminal event, status
/// ok, writes meet their target and match the replay, reads are
/// fixpoints with the session's previous hash, submits match the
/// reference solve.
std::string check_op(const Op& op, const Reference& ref,
                     std::vector<Session>& sessions) {
  if (!op.sent) return "never sent: the generator fell too far behind";
  if (op.terminal != 1)
    return mft::strf("%zu terminal events", static_cast<std::size_t>(op.terminal));
  const std::string& r = op.result;
  if (field(r, "status") != "ok") return "status " + field(r, "status");
  const std::string hash = field(r, "sizes_hash");
  if (op.kind == Kind::kSubmit) {
    return hash == ref.hash.at(op.what) ? "" : "sizes differ from the reference";
  }
  Session& s = sessions[static_cast<std::size_t>(op.session)];
  if (op.kind == Kind::kRead) {
    if (field(r, "mode") != "fixpoint") return "read was not a fixpoint";
    if (hash != s.base_hash) return "fixpoint hash differs from the last";
    return op.replay;
  }
  if (field(r, "met_target") != "true" ||
      !(num(r, "delay") <= num(r, "target") * (1.0 + 1e-9)))
    return "write misses its target";
  s.base_hash = hash;  // the session's current solution from here on
  return op.replay;
}

/// Latencies from due time to result of the writes and the submits.
struct Latencies {
  Tail write_tail, submit_tail;
  double write_p50 = 0.0, submit_p50 = 0.0;
};

Latencies evaluate(const std::vector<Op>& ops) {
  std::vector<double> write_lat, submit_lat;
  for (const Op& op : ops) {
    if (!op.sent) continue;  // already failed
    const double lat = op.done >= 0.0 ? latency_from_due(op.due, op.done)
                                      : 1e9;  // missing: slower than any
    if (op.kind == Kind::kWrite) write_lat.push_back(lat);
    if (op.kind == Kind::kSubmit) submit_lat.push_back(lat);
  }
  Latencies l;
  l.write_tail = tail(write_lat);
  l.submit_tail = tail(submit_lat);
  l.write_p50 = median(write_lat);
  l.submit_p50 = median(submit_lat);
  return l;
}

/// The resize mode of the write whose latency is nearest to `value`, for
/// showing which mode a percentile falls in.
std::string mode_at(const std::vector<Op>& ops, double value) {
  const Op* best = nullptr;
  double dist = 0.0;
  for (const Op& op : ops) {
    if (op.kind != Kind::kWrite || op.done < 0.0) continue;
    const double d = std::abs(latency_from_due(op.due, op.done) - value);
    if (best == nullptr || d < dist) {
      best = &op;
      dist = d;
    }
  }
  if (best == nullptr) return "?";
  return field(best->result, "mode") + " " + best->what +
         (field(best->result, "fell_back") == "true" ? " (fell back)" : "");
}

}  // namespace

void run_eco_serve(const Args& a, Report& rep) {
  const std::string dir = a.tmp_dir.empty() ? "." : a.tmp_dir;
  // The open loop leaves the CPUs idle between ops by design; without the
  // spinners every op would also time the host waking an idle CPU.
  const KeepWarm warm;
  Rng rng(a.seed);
  Reference ref;
  reference_solves(ref, rep);

  // Set-up: the served daemon first, then one throwaway daemon after
  // every chunk. The journals go when the run ends (declared
  // before the daemons, so they outlive them).
  struct Journals {
    std::vector<std::string> paths;
    std::string next(const std::string& dir) {
      paths.push_back(dir + "/eco-journal-" + std::to_string(paths.size()) +
                      ".jsonl");
      return paths.back();
    }
    ~Journals() {
      std::error_code ignored;
      for (const std::string& p : paths) std::filesystem::remove(p, ignored);
    }
  } journals;
  SetupTimer setup;
  Rng spare_rng(rng.next());
  auto check_setup = [&](const Served& d) {
    rep.attempt(d.setup_ops);
    if (d.setup_failures > 0) {
      rep.op_failed(d.setup_failures);
      rep.fail("set-up results differ from the reference");
    }
  };
  auto spare_setup = [&] {
    std::unique_ptr<Served> spare;
    const std::string journal = journals.next(dir);
    setup.slice([&] { spare = open_daemon(ref, journal, spare_rng); }, 0.0);
    check_setup(*spare);
  };
  std::unique_ptr<Served> served;
  const std::string journal = journals.next(dir);
  setup.slice([&] { served = open_daemon(ref, journal, rng); }, 0.0);
  Served& s = *served;
  check_setup(s);

  // Schedule: the whole run in chunks.
  std::vector<Op> ops;
  std::vector<Session> gen_sessions = s.sessions;
  Dealer submit_mix(kSubmitMix), write_mix(kWriteMix);
  std::vector<std::size_t> chunk_end;
  for (int c = 0; c < kChunks; ++c) {
    generate(rng, ref, gen_sessions, a.seconds / kChunks, submit_mix,
             write_mix, ops);
    chunk_end.push_back(ops.size());
  }

  const mft::DaemonStats before = s.daemon->stats();
  const double t0 = now_s();
  for (int c = 0; c < kChunks; ++c) {
    run_chunk(s, ops, c == 0 ? 0 : chunk_end[static_cast<std::size_t>(c - 1)],
              chunk_end[static_cast<std::size_t>(c)]);
    spare_setup();
  }
  const double wall = now_s() - t0;
  const mft::DaemonStats after = s.daemon->stats();
  attribute(s, ops);
  const double setup_s = setup.median();
  std::printf("eco_serve: %d sessions on %s, setup %.4fs (median of", kSessions,
              kSessionCircuit, setup_s);
  for (const double r : setup.reps()) std::printf(" %.4f", r);
  std::printf(")\n");

  // Output checks over every op, the resize chains replayed first.
  replay_sessions(ref, lowered(ref, kSessionCircuit), ops);
  std::vector<Session> check_sessions = s.sessions;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    rep.attempt();
    const std::string err = check_op(ops[i], ref, check_sessions);
    if (!err.empty()) {
      rep.op_failed();
      rep.fail(mft::strf("op %zu (%s): %s", i, ops[i].line.c_str(),
                         err.c_str()));
    }
  }

  // Write latency is the end-to-end metric; the submit latencies and both
  // tails are logged (a tail has no counterpart on the other workloads).
  const Latencies m = evaluate(ops);
  std::printf("resize p50 %.5fs falls on a %s write; resize tail %.5fs "
              "(%s) on a %s write\n",
              m.write_p50, mode_at(ops, m.write_p50).c_str(),
              m.write_tail.value,
              describe_tail(m.write_tail.percentile, m.write_tail.samples)
                  .c_str(),
              mode_at(ops, m.write_tail.value).c_str());
  std::printf("submit p50 %.5fs; submit tail %.5fs (%s)\n", m.submit_p50,
              m.submit_tail.value,
              describe_tail(m.submit_tail.percentile, m.submit_tail.samples)
                  .c_str());
  std::printf("daemon: %llu rejected, %llu shed\n",
              static_cast<unsigned long long>(after.rejected - before.rejected),
              static_cast<unsigned long long>(after.engine.shed -
                                              before.engine.shed));

  if (!a.trace) {
    report_end_to_end(rep, setup_s, m.write_p50, ref.area_ratio);
    return;
  }

  // Traced: daemon, engine and resize numbers from the events and
  // handle_line timings; the pipeline split from replays of the submits.
  std::vector<double> lag, ingress_submit, ingress_write, ingress_read, queue;
  std::map<std::string, std::vector<double>> mode_s;
  std::vector<double> region;
  ServiceCounts counts;
  int writes = 0;
  double submit_wall = 0.0;
  LayerSplit split;
  for (const Op& op : ops) {
    lag.push_back(op.lag);
    const std::string& r = op.result;
    if (op.kind == Kind::kSubmit) {
      ingress_submit.push_back(op.ingress);
      queue.push_back(num(r, "queue_seconds"));
      submit_wall += num(r, "wall_seconds");
      continue;
    }
    (op.kind == Kind::kWrite ? ingress_write : ingress_read)
        .push_back(op.ingress);
    const std::string mode = field(r, "mode");
    mode_s[mode].push_back(num(r, "wall_seconds"));
    if (field(r, "fell_back") == "true") ++counts.fallbacks;
    if (op.kind == Kind::kWrite) {
      ++writes;
      if (num(r, "region") > 0.0) region.push_back(num(r, "region"));
    }
  }
  for (const Op& op : ops) {
    if (op.kind != Kind::kSubmit || op.terminal != 1 ||
        field(op.result, "status") != "ok")
      continue;  // already counted as failed
    const mft::SizingNetwork& net = ref.nets.at(op.what)->net;
    const std::vector<double> sizes = replay_job(
        net, num(op.result, "target"), mft::MinflotransitOptions{},
        std::stoull(field(op.result, "seed")), split);
    if (std::to_string(sizes_hash(sizes)) != field(op.result, "sizes_hash"))
      rep.fail("replay of " + field(op.result, "id") +
               " differs from the daemon's result");
  }
  counts.warm = static_cast<std::int64_t>(mode_s["warm"].size());
  counts.cold = static_cast<std::int64_t>(mode_s["cold"].size());
  counts.fixpoint = static_cast<std::int64_t>(mode_s["fixpoint"].size());
  counts.fsyncs = static_cast<std::int64_t>(after.journal_fsyncs -
                                            before.journal_fsyncs);
  counts.bytes =
      static_cast<std::int64_t>(after.journal_bytes - before.journal_bytes);
  split.report(rep, submit_wall);
  rep.metric("engine.queue_p50_s", median(queue), "s");
  rep.metric("engine.busy_frac", submit_wall / (2.0 * wall), "ratio");
  counts.report(rep);

  // Layer times of the serving path, which only this workload has.
  const Tail lag_tail = tail(lag), queue_tail = tail(queue);
  std::printf("engine queue tail %.6fs (%s)\n", queue_tail.value,
              describe_tail(queue_tail.percentile, queue_tail.samples).c_str());
  std::printf("daemon hol wait: p50 %.6fs, tail %.6fs (%s)\n", median(lag),
              lag_tail.value,
              describe_tail(lag_tail.percentile, lag_tail.samples).c_str());
  std::printf("daemon ingress p50: submit %.6fs, write %.6fs, read %.6fs\n",
              median(ingress_submit), median(ingress_write),
              median(ingress_read));
  std::printf("resize: warm %lld (p50 %.6fs), cold %lld (p50 %.6fs), fixpoint "
              "%lld (p50 %.6fs); %lld fell back; warm share of writes %.3f; "
              "region p50 %.0f vertices\n",
              static_cast<long long>(counts.warm), median(mode_s["warm"]),
              static_cast<long long>(counts.cold), median(mode_s["cold"]),
              static_cast<long long>(counts.fixpoint),
              median(mode_s["fixpoint"]),
              static_cast<long long>(counts.fallbacks),
              writes > 0 ? static_cast<double>(counts.warm) / writes : 0.0,
              median(region));
}

}  // namespace perfbench
