// e2e_bench: the load generator behind perfbench/run.py.
//
// One invocation runs one workload against a spawned graphlogd:
//
//   * generates the facts from --seed (workload::RandomDigraph, plus
//     workload::Flights for closure_read) and the expected answers;
//   * starts the graphlogd binary as a child process (--facts, --dir in a
//     fresh directory, --fsync per workload, --port 0) and reads its port
//     from stderr;
//   * --trace 0: drives it closed-loop, one blocking net::Client per
//     client and one thread per client (read_write: one thread for both
//     clients, in lock-step), and prints the end-to-end metrics;
//   * --trace 1: replays the same seeded op stream serially, first over
//     the wire and then twice in-process (untraced, then traced with spans
//     recorded around each layer's public calls), and prints the
//     per-layer metrics.
//
// Every answer is checked. A mismatch exits 3 and a set-up failure exits
// 1, both without a result line. Ops that fail on the wire (transport
// errors, kOverloaded) are counted, not fatal. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "durability/wal.h"
#include "graphlog/api.h"
#include "net/client.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/io.h"
#include "workload/generators.h"

namespace {

using namespace graphlog;

// ---------------------------------------------------------------------------
// Failure exits and small helpers.

/// Live graphlogd children: a failure exit kills and reaps them first.
std::mutex g_children_mu;
std::vector<pid_t> g_children;

[[noreturn]] void FailExit(int code, const char* what, const std::string& msg) {
  std::fprintf(stderr, "e2e_bench: %s: %s\n", what, msg.c_str());
  std::lock_guard<std::mutex> lock(g_children_mu);
  for (pid_t pid : g_children) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
  std::_Exit(code);
}

[[noreturn]] void SetupFailure(const std::string& msg) {
  FailExit(1, "set-up failure", msg);
}

[[noreturn]] void Mismatch(const std::string& msg) {
  FailExit(3, "CORRECTNESS MISMATCH", msg);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) SetupFailure(what + ": " + r.status().ToString());
  return std::move(*r);
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) SetupFailure(what + ": " + s.ToString());
}

double MsSince(uint64_t start_ns) {
  return static_cast<double>(obs::NowNs() - start_ns) / 1e6;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// A latency distribution as the report states it: the median, the 90th
/// percentile, and the highest whole percentile that still has at least ten
/// samples beyond it.
struct Dist {
  double p50 = 0;
  double p90 = 0;
  double tail = 0;
  int tail_pct = 50;
  size_t n = 0;
};

Dist Summarize(std::vector<double> v) {
  Dist d;
  d.n = v.size();
  if (v.empty()) return d;
  d.p50 = Median(v);
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  d.p90 = v[static_cast<size_t>(std::ceil(0.9 * static_cast<double>(n))) - 1];
  d.tail_pct = n > 20 ? static_cast<int>(100 * (n - 10) / n) : 50;
  const size_t rank = static_cast<size_t>(
      std::ceil(static_cast<double>(d.tail_pct) / 100.0 * n));
  d.tail = std::max(d.p50, v[std::max<size_t>(rank, 1) - 1]);
  return d;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Workload configuration.

enum class Workload { kClosureRead, kPointChurn, kReadWrite };

struct Config {
  Workload workload;
  std::string name;
  int nodes = 0;    ///< RandomDigraph nodes ("edge", n0..n{nodes-1})
  int edges = 0;    ///< RandomDigraph edges
  int flights = 0;  ///< workload::Flights (closure_read only)
  int cities = 0;
  int clients = 0;     ///< closed-loop clients in the --trace 0 window
  int rt_pairs = 4;    ///< distinct rt-scale endpoint pairs
  int probe_ops = 40;  ///< visits / commits of the traced replay's probes
  int setup_reps = 9;  ///< daemon start-ups timed for setup_s
  /// One load thread drives all clients in turn, a cycle at a time,
  /// instead of one thread per client (read_write: a commit, then the
  /// reader's reads). Run side by side, the writer's publish copy and the
  /// readers' refresh copies overlapped by chance, and the median commit
  /// spread by up to 25% over ten runs of the same code.
  bool lockstep = false;
  /// Every daemon is durable, so that the traced replay's probe commits go
  /// through the WAL on every workload; only read_write, whose subject is
  /// the commit path, syncs each commit.
  durability::FsyncPolicy fsync = durability::FsyncPolicy::kOff;
};

Config MakeConfig(const std::string& name, bool tiny) {
  Config c;
  c.name = name;
  if (name == "closure_read") {
    c.workload = Workload::kClosureRead;
    c.nodes = tiny ? 24 : 128;
    c.edges = tiny ? 64 : 512;
    c.flights = tiny ? 30 : 150;
    c.cities = tiny ? 6 : 15;
    c.clients = 2;
  } else if (name == "point_churn" || name == "read_write") {
    c.nodes = tiny ? 400 : 12500;
    c.edges = tiny ? 1600 : 50000;
    // One client of each kind: every visit, commit and reader refresh
    // copies the 50k-row relation, and two such copies at once contend for
    // the memory bandwidth of a shared host. With two visitors, the median
    // lookup spread by 30% over ten runs of the same code and the p99 visit
    // by 45%.
    if (name == "point_churn") {
      c.workload = Workload::kPointChurn;
      c.clients = 1;
    } else {
      c.workload = Workload::kReadWrite;
      c.clients = 2;
      c.lockstep = true;
      c.fsync = durability::FsyncPolicy::kAlways;
    }
  } else {
    SetupFailure("unknown workload '" + name +
                 "' (closure_read, point_churn, read_write)");
  }
  if (tiny) {
    c.probe_ops = 10;
    c.setup_reps = 2;
  }
  return c;
}

// ---------------------------------------------------------------------------
// The generated data set and the expected answers.

constexpr int kLookupsPerVisit = 4;
constexpr int kEdgesPerCommit = 4;
/// read_write: the reader's reads after each commit. The first pays the
/// refresh copy and rebuilds the index; the others are cheap.
constexpr int kReadsPerCommit = 4;
constexpr size_t kLookupPool = 64;
/// closure_read clients reopen their session after this many rounds.
/// Every closure query leaves its auxiliary relations in the session, so a
/// session kept for the whole run grows and slows down with run length.
constexpr uint64_t kRoundsPerSession = 10;
/// The queries of a closure_read round, in order.
const char* const kThirds[] = {"closure", "feasible", "rt-scale"};

struct Dataset {
  int nodes = 0;
  std::vector<std::vector<int>> adj;     ///< seed edges by source node
  std::unordered_set<uint64_t> edge_set;  ///< seed edges, a * nodes + b
  /// Lookup constants: seed-chosen nodes with out-edges. A bounded pool
  /// keeps the session-local `hop-*` relations a long-lived reader session
  /// accumulates bounded too.
  std::vector<int> lookup_pool;
  int airlines = 3;
  std::string facts_path;
  /// closure_read query pool: text and reference result_tuples.
  std::vector<std::pair<std::string, uint64_t>> closure_pool;
};

int NodeIndex(const std::string& name) {
  if (name.size() < 2 || name[0] != 'n') SetupFailure("bad node " + name);
  return std::stoi(name.substr(1));
}

std::string LookupQuery(int c) {
  const std::string n = "n" + std::to_string(c);
  return "query hop-" + n + " { edge \"" + n + "\" -> Z : edge; edge Z -> Y : edge; "
         "distinguished \"" + n + "\" -> Y : hop-" + n + "; }";
}

const char* kClosureQuery =
    "query t { edge X -> Y : edge+; distinguished X -> Y : t; }";

const char* kFeasibleQuery =
    "query feasible {\n"
    "  edge F1 -> A1 : arrival;\n"
    "  edge F2 -> D2 : departure;\n"
    "  edge A1 -> D2 : <;\n"
    "  edge F1 -> C : to;\n"
    "  edge F2 -> C : from;\n"
    "  distinguished F1 -> F2 : feasible;\n"
    "}\n"
    "query stop-connected {\n"
    "  edge C1 -> C2 : (-from) feasible+ to;\n"
    "  distinguished C1 -> C2 : stop-connected;\n"
    "}\n";

std::string RtScaleQuery(int from, int to, int airline) {
  // Answers accumulate in a session's relation of the query's name, so
  // the name carries every parameter.
  const std::string name = "rt-scale-c" + std::to_string(from) + "-c" +
                           std::to_string(to) + "-al" +
                           std::to_string(airline);
  const std::string al = "al" + std::to_string(airline) + "+";
  return "query " + name + " {\n  edge \"city" + std::to_string(from) +
         "\" -> C : " + al + ";\n  edge C -> \"city" + std::to_string(to) +
         "\" : " + al + ";\n  distinguished C -> C : " + name + ";\n}\n";
}

/// Runs every pool query once in-process (fresh server, fresh session per
/// query) and records its result_tuples as the reference count.
void ComputeClosureReferences(Dataset* data) {
  Server server;
  WriteBatch seed;
  seed.LoadFile(data->facts_path);
  Must(server.Apply(seed), "reference seed");
  for (auto& [text, expected] : data->closure_pool) {
    auto session = Must(server.OpenSession(), "reference session");
    QueryResponse r =
        Must(session->Run(QueryRequest::GraphLog(text)), "reference query");
    expected = r.stats.result_tuples;
  }
}

Dataset MakeDataset(const Config& cfg, uint64_t seed, const std::string& dir) {
  Dataset d;
  d.nodes = cfg.nodes;
  storage::Database db;
  Must(workload::RandomDigraph(cfg.nodes, cfg.edges, seed, &db),
       "RandomDigraph");
  if (cfg.flights > 0) {
    workload::FlightsOptions fo;
    fo.num_flights = cfg.flights;
    fo.num_cities = cfg.cities;
    fo.num_airlines = d.airlines;
    fo.seed = seed;
    Must(workload::Flights(fo, &db), "Flights");
  }
  d.facts_path = dir + "/facts.gl";
  Must(storage::SaveFactsFile(d.facts_path, db), "write facts");
  d.adj.assign(cfg.nodes, {});
  const storage::Relation* edge = db.Find("edge");
  if (edge == nullptr) SetupFailure("no edge relation generated");
  for (const auto& t : edge->rows()) {
    const int a = NodeIndex(t[0].ToString(db.symbols()));
    const int b = NodeIndex(t[1].ToString(db.symbols()));
    if (d.edge_set.insert(static_cast<uint64_t>(a) * cfg.nodes + b).second) {
      d.adj[a].push_back(b);
    }
  }
  std::vector<int> sources;
  for (int i = 0; i < cfg.nodes; ++i) {
    if (!d.adj[i].empty()) sources.push_back(i);
  }
  std::mt19937_64 pool_rng(seed * 6007 + 3);
  std::shuffle(sources.begin(), sources.end(), pool_rng);
  sources.resize(std::min<size_t>(sources.size(), kLookupPool));
  d.lookup_pool = std::move(sources);
  if (cfg.workload == Workload::kClosureRead) {
    d.closure_pool.push_back({kClosureQuery, 0});
    d.closure_pool.push_back({kFeasibleQuery, 0});
    std::mt19937_64 rng(seed * 7919 + 17);
    for (int i = 0; i < cfg.rt_pairs; ++i) {
      const int from = static_cast<int>(rng() % cfg.cities);
      int to = static_cast<int>(rng() % (cfg.cities - 1));
      if (to >= from) ++to;
      const int airline = static_cast<int>(rng() % d.airlines);
      d.closure_pool.push_back({RtScaleQuery(from, to, airline), 0});
    }
    ComputeClosureReferences(&d);
  }
  return d;
}

// ---------------------------------------------------------------------------
// The op stream. Each client draws its ops from its own seeded source, so
// the concurrent run and the serial replays issue the same ops.

enum class OpKind { kRound, kVisit, kRead, kCommit, kRefresh };

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kRound: return "round";
    case OpKind::kVisit: return "visit";
    case OpKind::kRead: return "read";
    case OpKind::kCommit: return "commit";
    case OpKind::kRefresh: return "refresh";
  }
  return "?";
}

struct Op {
  OpKind kind = OpKind::kRound;
  int client = 0;  ///< the virtual client whose session issues it
  /// kRound: one query of each third of the closure_read mix, with their
  /// reference counts in `expected`; kVisit: four lookups;
  /// kRead: one lookup. Lookups carry their constant in `nodes`.
  std::vector<std::string> queries;
  std::vector<int> nodes;
  std::vector<uint64_t> expected;
  /// kRound: drop the client's session first and run on a fresh one.
  bool new_session = false;
  std::string relation;  ///< kCommit: the relation the facts go to
  std::string facts;     ///< kCommit: the fact text
  std::vector<std::pair<int, int>> edges;
};

/// Picks fresh edges for commits. One writer at a time uses it.
class EdgePicker {
 public:
  EdgePicker(const Dataset* data, uint64_t seed) : data_(data), rng_(seed) {}

  std::vector<std::pair<int, int>> Next() {
    std::vector<std::pair<int, int>> out;
    while (out.size() < static_cast<size_t>(kEdgesPerCommit)) {
      const int a = static_cast<int>(rng_() % data_->nodes);
      const int b = static_cast<int>(rng_() % data_->nodes);
      const uint64_t key = static_cast<uint64_t>(a) * data_->nodes + b;
      if (a == b || data_->edge_set.count(key) || !added_.insert(key).second) {
        continue;
      }
      out.emplace_back(a, b);
    }
    return out;
  }

 private:
  const Dataset* data_;
  std::mt19937_64 rng_;
  std::unordered_set<uint64_t> added_;
};

enum class Phase { kMain, kProbeVisit, kProbeCommit };

class OpSource {
 public:
  OpSource(const Config& cfg, const Dataset& data, uint64_t seed, int client,
           Phase phase, EdgePicker* picker)
      : cfg_(cfg),
        data_(data),
        client_(client),
        phase_(phase),
        picker_(picker),
        rng_(seed * 1000003 + client * 101 + static_cast<int>(phase)) {}

  Op Next() {
    Op op;
    op.client = client_;
    switch (phase_) {
      case Phase::kMain:
        if (cfg_.workload == Workload::kClosureRead) {
          FillClosure(&op);
        } else if (cfg_.workload == Workload::kPointChurn) {
          FillVisit(&op);
        } else if (client_ == 0) {
          FillCommit(&op);
        } else {
          op.kind = OpKind::kRead;
          AddLookup(&op);
        }
        break;
      case Phase::kProbeVisit:
        FillVisit(&op);
        break;
      case Phase::kProbeCommit:
        // This client commits, then the next one refreshes past it.
        if (count_ % 2 == 0) {
          FillCommit(&op);
        } else {
          op.kind = OpKind::kRefresh;
          op.client = client_ + 1;
        }
        break;
    }
    ++count_;
    return op;
  }

 private:
  void FillClosure(Op* op) {
    op->kind = OpKind::kRound;
    op->new_session = count_ > 0 && count_ % kRoundsPerSession == 0;
    for (size_t idx : {size_t{0}, size_t{1}, 2 + rng_() % cfg_.rt_pairs}) {
      op->queries.push_back(data_.closure_pool[idx].first);
      op->expected.push_back(data_.closure_pool[idx].second);
    }
  }
  void AddLookup(Op* op) {
    const int c = data_.lookup_pool[rng_() % data_.lookup_pool.size()];
    op->queries.push_back(LookupQuery(c));
    op->nodes.push_back(c);
  }
  void FillVisit(Op* op) {
    op->kind = OpKind::kVisit;
    for (int i = 0; i < kLookupsPerVisit; ++i) AddLookup(op);
  }
  void FillCommit(Op* op) {
    op->kind = OpKind::kCommit;
    // closure_read's reference answers are over `edge`, so its probe
    // commits go to a small side relation instead.
    op->relation = cfg_.workload == Workload::kClosureRead ? "side" : "edge";
    op->edges = picker_->Next();
    for (auto [a, b] : op->edges) {
      op->facts += op->relation + "(n" + std::to_string(a) + ", n" +
                   std::to_string(b) + ").\n";
    }
  }

  const Config& cfg_;
  const Dataset& data_;
  int client_;
  Phase phase_;
  EdgePicker* picker_;
  std::mt19937_64 rng_;
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Answer checking. Lookup answers depend on the epoch they ran at, so they
// are checked after the run against the commit history.

struct LookupRecord {
  uint64_t epoch = 0;
  int node = 0;
  uint64_t count = 0;
};

struct CommitRecord {
  uint64_t epoch = 0;
  std::vector<std::pair<int, int>> edges;
};

struct Answers {
  std::vector<LookupRecord> lookups;
  std::vector<CommitRecord> commits;
  uint64_t closure_checked = 0;

  void Merge(Answers&& o) {
    lookups.insert(lookups.end(), o.lookups.begin(), o.lookups.end());
    commits.insert(commits.end(), o.commits.begin(), o.commits.end());
    closure_checked += o.closure_checked;
  }
};

/// When set, the first expected count checked is off by one: the
/// self-test's proof that a wrong answer is caught.
bool g_corrupt_expected = false;

void CheckClosure(const Op& op, size_t i, uint64_t got, Answers* answers) {
  uint64_t expected = op.expected[i];
  if (g_corrupt_expected) expected += 1;
  if (got != expected) {
    Mismatch("closure query returned " + std::to_string(got) +
             " tuples, reference " + std::to_string(expected) + ": " +
             op.queries[i].substr(0, 60));
  }
  ++answers->closure_checked;
}

/// Checks every lookup against two-hop counts over the seed edges plus
/// every acknowledged commit at or below the lookup's epoch.
void CheckLookups(const Dataset& data, Answers answers) {
  std::sort(answers.lookups.begin(), answers.lookups.end(),
            [](const LookupRecord& a, const LookupRecord& b) {
              return a.epoch < b.epoch;
            });
  std::sort(answers.commits.begin(), answers.commits.end(),
            [](const CommitRecord& a, const CommitRecord& b) {
              return a.epoch < b.epoch;
            });
  std::vector<std::vector<int>> adj = data.adj;
  std::vector<uint32_t> mark(data.nodes, 0);
  uint32_t stamp = 0;
  size_t next_commit = 0;
  bool corrupt = g_corrupt_expected;
  for (const LookupRecord& l : answers.lookups) {
    while (next_commit < answers.commits.size() &&
           answers.commits[next_commit].epoch <= l.epoch) {
      for (auto [a, b] : answers.commits[next_commit].edges) {
        adj[a].push_back(b);
      }
      ++next_commit;
    }
    ++stamp;
    uint64_t expected = 0;
    for (int z : adj[l.node]) {
      for (int y : adj[z]) {
        if (mark[y] != stamp) {
          mark[y] = stamp;
          ++expected;
        }
      }
    }
    if (corrupt) {
      expected += 1;
      corrupt = false;
    }
    if (l.count != expected) {
      Mismatch("two-hop lookup from n" + std::to_string(l.node) +
               " at epoch " + std::to_string(l.epoch) + " returned " +
               std::to_string(l.count) + ", expected " +
               std::to_string(expected));
    }
  }
}

// ---------------------------------------------------------------------------
// The graphlogd child process.

struct Daemon {
  pid_t pid = -1;
  int err_fd = -1;
  uint16_t port = 0;
  uint64_t epoch = 0;  ///< the epoch a durable open recovered
  std::string dir;
};

/// Starts graphlogd and reads stderr until it reports its port.
Daemon Spawn(const std::string& bin, const std::string& dir,
             durability::FsyncPolicy fsync, const std::string& facts) {
  Daemon d;
  d.dir = dir;
  int fds[2];
  if (::pipe(fds) != 0) SetupFailure("pipe");
  std::vector<std::string> args = {bin, "--port", "0", "--dir", dir,
                                   "--fsync",
                                   std::string(durability::FsyncPolicyName(fsync))};
  if (!facts.empty()) {
    args.push_back("--facts");
    args.push_back(facts);
  }
  const pid_t pid = ::fork();
  if (pid < 0) SetupFailure("fork");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(fds[1], 2);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(bin.c_str(), argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    g_children.push_back(pid);
  }
  d.pid = pid;
  d.err_fd = fds[0];
  std::string buf;
  const uint64_t start = obs::NowNs();
  while (true) {
    if (MsSince(start) > 120000) SetupFailure("graphlogd did not start");
    pollfd p{d.err_fd, POLLIN, 0};
    if (::poll(&p, 1, 1000) <= 0) continue;
    char chunk[512];
    const ssize_t n = ::read(d.err_fd, chunk, sizeof(chunk));
    if (n <= 0) SetupFailure("graphlogd exited during start-up: " + buf);
    buf.append(chunk, static_cast<size_t>(n));
    const size_t ep = buf.find(", epoch ");
    if (ep != std::string::npos) d.epoch = std::stoull(buf.substr(ep + 8));
    const size_t at = buf.find("listening on 127.0.0.1:");
    if (at != std::string::npos && buf.find('\n', at) != std::string::npos) {
      d.port = static_cast<uint16_t>(std::stoul(buf.substr(at + 23)));
      return d;
    }
  }
}

void Stop(Daemon* d, int sig) {
  if (d->pid <= 0) return;
  ::kill(d->pid, sig);
  int status = 0;
  ::waitpid(d->pid, &status, 0);
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    std::erase(g_children, d->pid);
  }
  ::close(d->err_fd);
  d->pid = -1;
}

void WaitForPing(uint16_t port) {
  for (int i = 0; i < 3000; ++i) {
    auto c = net::Client::Connect("127.0.0.1", port);
    if (c.ok() && (*c)->Ping().ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  SetupFailure("graphlogd never answered a Ping");
}

double VmHwmMiB(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  SetupFailure("no VmHWM for graphlogd");
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

// ---------------------------------------------------------------------------
// Remote execution of one op.

/// One virtual client's connection; its session opens on first use.
struct RemoteConn {
  std::unique_ptr<net::Client> client;

  Status Ensure(uint16_t port) {
    if (client != nullptr && client->connected()) return Status::OK();
    client.reset();
    auto c = net::Client::Connect("127.0.0.1", port);
    if (!c.ok()) return c.status();
    auto s = (*c)->OpenSession();
    if (!s.ok()) return s.status();
    client = std::move(*c);
    return Status::OK();
  }
};

/// What one remote op produced: its latency and the latencies of its
/// parts, or a failure.
struct RemoteResult {
  bool ok = false;
  bool overloaded = false;
  double ms = 0;
  std::vector<double> run_ms;  ///< each Client::Run inside the op
  double connect_ms = -1;      ///< visits: Client::Connect incl. hello
};

void NoteFailure(const Status& s, RemoteResult* r) {
  r->ok = false;
  if (s.code() == StatusCode::kOverloaded) r->overloaded = true;
}

/// Runs one lookup or closure query on `client`; false on a wire failure.
bool RemoteQuery(net::Client* client, const Op& op, size_t i, Answers* answers,
                 RemoteResult* r) {
  net::WireQuery q;
  q.text = op.queries[i];
  const uint64_t t0 = obs::NowNs();
  auto res = client->Run(q);
  r->run_ms.push_back(MsSince(t0));
  if (!res.ok()) {
    NoteFailure(res.status(), r);
    return false;
  }
  if (!op.expected.empty()) {
    CheckClosure(op, i, res->result_tuples, answers);
  } else {
    answers->lookups.push_back({res->epoch, op.nodes[i], res->result_tuples});
  }
  return true;
}

RemoteResult ExecRemote(const Op& op, uint16_t port,
                        std::vector<RemoteConn>* conns, Answers* answers) {
  RemoteResult r;
  r.ok = true;
  const uint64_t t0 = obs::NowNs();
  if (op.kind == OpKind::kVisit) {
    auto c = net::Client::Connect("127.0.0.1", port);
    r.connect_ms = MsSince(t0);
    if (!c.ok()) {
      NoteFailure(c.status(), &r);
      return r;
    }
    net::Client* client = c->get();
    auto s = client->OpenSession();
    if (!s.ok()) {
      NoteFailure(s.status(), &r);
      return r;
    }
    for (size_t i = 0; i < op.queries.size(); ++i) {
      if (!RemoteQuery(client, op, i, answers, &r)) return r;
    }
    const Status closed = client->CloseSession();
    if (!closed.ok()) {
      NoteFailure(closed, &r);
      return r;
    }
    c->reset();  // disconnect
    r.ms = MsSince(t0);
    return r;
  }

  RemoteConn& conn = (*conns)[op.client];
  if (op.new_session) conn.client.reset();
  Status st = conn.Ensure(port);
  if (!st.ok()) {
    NoteFailure(st, &r);
    return r;
  }
  const uint64_t op_start = obs::NowNs();  // excludes a reconnect
  net::Client* client = conn.client.get();
  switch (op.kind) {
    case OpKind::kRound:
      for (size_t i = 0; i < op.queries.size(); ++i) {
        if (!RemoteQuery(client, op, i, answers, &r)) return r;
      }
      break;
    case OpKind::kRead: {
      auto ref = client->Refresh();
      if (!ref.ok()) {
        NoteFailure(ref.status(), &r);
        return r;
      }
      if (!RemoteQuery(client, op, 0, answers, &r)) return r;
      break;
    }
    case OpKind::kRefresh: {
      auto ref = client->Refresh();
      if (!ref.ok()) {
        NoteFailure(ref.status(), &r);
        return r;
      }
      break;
    }
    case OpKind::kCommit: {
      WriteBatch batch;
      batch.Facts(op.facts);
      auto applied = client->Apply(batch);
      if (!applied.ok()) {
        NoteFailure(applied.status(), &r);
        return r;
      }
      if (applied->facts != op.edges.size()) {
        Mismatch("commit inserted " + std::to_string(applied->facts) +
                 " facts, sent " + std::to_string(op.edges.size()));
      }
      if (op.relation == "edge") {
        answers->commits.push_back({applied->epoch, op.edges});
      }
      break;
    }
    case OpKind::kVisit:
      break;
  }
  r.ms = MsSince(op_start);
  return r;
}

/// Per-client tallies of ops, latencies and answers.
struct ClientLog {
  /// query_ms: every Run (read_write: Refresh + Run). op_ms: the
  /// workload's own op: a round of closure queries, a visit, or a commit.
  std::vector<double> query_ms, op_ms;
  std::map<std::string, std::vector<double>> third_ms;  ///< Runs by kThirds
  uint64_t completed = 0, attempted = 0, failed = 0, overloaded = 0;
  uint64_t fact_bytes = 0;  ///< fact text of acknowledged commits
  Answers answers;

  /// Warm-up ops are checked and counted but not timed.
  void Record(const Op& op, const RemoteResult& r, bool timed) {
    ++attempted;
    if (!r.ok) {
      ++failed;
      if (r.overloaded) ++overloaded;
      return;
    }
    if (op.kind == OpKind::kCommit) fact_bytes += op.facts.size();
    if (!timed) return;
    ++completed;
    switch (op.kind) {
      case OpKind::kRound:
        for (size_t i = 0; i < r.run_ms.size(); ++i) {
          third_ms[kThirds[i]].push_back(r.run_ms[i]);
        }
        [[fallthrough]];
      case OpKind::kVisit:
        op_ms.push_back(r.ms);
        query_ms.insert(query_ms.end(), r.run_ms.begin(), r.run_ms.end());
        break;
      case OpKind::kRead:  // Refresh + Run
        query_ms.push_back(r.ms);
        break;
      case OpKind::kCommit:
        op_ms.push_back(r.ms);
        break;
      case OpKind::kRefresh:
        break;
    }
  }

  void Merge(ClientLog&& o) {
    query_ms.insert(query_ms.end(), o.query_ms.begin(), o.query_ms.end());
    op_ms.insert(op_ms.end(), o.op_ms.begin(), o.op_ms.end());
    for (auto& [third, v] : o.third_ms) {
      third_ms[third].insert(third_ms[third].end(), v.begin(), v.end());
    }
    completed += o.completed;
    fact_bytes += o.fact_bytes;
    attempted += o.attempted;
    failed += o.failed;
    overloaded += o.overloaded;
    answers.Merge(std::move(o.answers));
  }
};

// ---------------------------------------------------------------------------
// Output.

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< how it was measured (report line only)
};

/// Prints one report line per metric, then the result line.
void PrintResult(uint64_t attempted, uint64_t failed,
                 const std::vector<MetricOut>& metrics) {
  for (const MetricOut& m : metrics) {
    std::printf("%-30s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatDouble(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string graphlogd;
  std::string work;
  std::string trace_out;
  bool tiny = false;
};

/// The traced replay adds probes for the op kinds a workload lacks, so
/// that every layer's metrics have samples on every workload.
std::vector<Phase> ProbePhases(const Config& cfg) {
  std::vector<Phase> out;
  if (cfg.workload != Workload::kPointChurn) out.push_back(Phase::kProbeVisit);
  if (cfg.workload != Workload::kReadWrite) out.push_back(Phase::kProbeCommit);
  return out;
}

/// Probes run on sessions of their own (virtual clients after the
/// workload's), so that they neither see nor change the others' state.
constexpr int kProbeClients = 2;

/// Ops each probe phase issues (a commit probe pairs each commit with a
/// refresh).
int ProbeOps(const Config& cfg, Phase p) {
  return p == Phase::kProbeCommit ? 2 * cfg.probe_ops : cfg.probe_ops;
}

/// Ops client `c` issues per cycle of the window and of the traced replay.
int OpsPerCycle(const Config& cfg, int c) {
  return cfg.workload == Workload::kReadWrite && c > 0 ? kReadsPerCommit : 1;
}

/// Reads back `edge` and compares it with the seed plus every
/// acknowledged commit.
void CheckEdgeRelation(const Dataset& data, const Answers& answers,
                       uint16_t port, const std::string& when) {
  RemoteConn conn;
  Must(conn.Ensure(port), "connect for FetchRelation");
  const std::string text =
      Must(conn.client->FetchRelation("edge"), "FetchRelation(edge)");
  std::unordered_set<uint64_t> expected = data.edge_set;
  for (const CommitRecord& c : answers.commits) {
    for (auto [a, b] : c.edges) {
      expected.insert(static_cast<uint64_t>(a) * data.nodes + b);
    }
  }
  size_t rows = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t open = line.find('('), comma = line.find(", "),
                 close = line.find(')');
    if (open == std::string::npos || comma == std::string::npos ||
        close == std::string::npos) {
      Mismatch("unparseable edge row '" + line + "'");
    }
    const int a = NodeIndex(line.substr(open + 1, comma - open - 1));
    const int b = NodeIndex(line.substr(comma + 2, close - comma - 2));
    if (!expected.count(static_cast<uint64_t>(a) * data.nodes + b)) {
      Mismatch(when + ": unexpected edge row '" + line + "'");
    }
    ++rows;
  }
  if (rows != expected.size()) {
    Mismatch(when + ": edge holds " + std::to_string(rows) +
             " rows, expected " + std::to_string(expected.size()));
  }
}

// ---------------------------------------------------------------------------
// --trace 0: the closed-loop end-to-end run.

int RunEndToEnd(const Args& args, const Config& cfg, const Dataset& data) {
  // Set-up: spawn to first Ping, several times; the last daemon serves.
  std::vector<double> setup_s;
  Daemon daemon;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    if (rep > 0) Stop(&daemon, SIGTERM);
    const std::string dir = args.work + "/store" + std::to_string(rep);
    const uint64_t t0 = obs::NowNs();
    daemon = Spawn(args.graphlogd, dir, cfg.fsync, data.facts_path);
    WaitForPing(daemon.port);
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  // The footprint of the seeded database. Read later, the high-water mark
  // depends on timing: each connection thread of the daemon may allocate
  // from its own malloc arena, and how many arenas a run touches depends on
  // when finished threads exit.
  const double rss_mib = VmHwmMiB(daemon.pid);
  const std::string wal_path = daemon.dir + "/wal.log";
  const uint64_t wal_before = FileBytes(wal_path);

  EdgePicker picker(&data, args.seed * 31 + 7);
  std::vector<RemoteConn> conns(cfg.clients);
  std::vector<ClientLog> logs(cfg.clients);
  std::vector<OpSource> sources;
  for (int c = 0; c < cfg.clients; ++c) {
    sources.emplace_back(cfg, data, args.seed, c, Phase::kMain, &picker);
  }
  // One cycle of a client group: each client's ops of a cycle, in turn.
  // A failed op is counted and the client backs off for a millisecond.
  auto run_cycle = [&](const std::vector<int>& group, bool timed) {
    for (int c : group) {
      for (int i = 0; i < OpsPerCycle(cfg, c); ++i) {
        const Op op = sources[c].Next();
        RemoteResult r = ExecRemote(op, daemon.port, &conns, &logs[c].answers);
        logs[c].Record(op, r, timed);
        if (!r.ok) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  };
  std::vector<std::vector<int>> groups;  // the clients of each load thread
  for (int c = 0; c < cfg.clients; ++c) {
    if (cfg.lockstep && c > 0) {
      groups[0].push_back(c);
    } else {
      groups.push_back({c});
    }
  }
  // Warm-up, untimed: sessions open, closures and indexes built, the WAL
  // written, and the daemon's allocator past its first copies.
  for (const auto& g : groups) {
    for (int i = 0; i < 3; ++i) run_cycle(g, /*timed=*/false);
  }

  // The closed-loop window: every load thread runs cycles until the
  // deadline.
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  uint64_t deadline_ns = 0;
  std::vector<std::thread> threads;
  for (const auto& g : groups) {
    threads.emplace_back([&, group = &g] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      while (obs::NowNs() < deadline_ns) run_cycle(*group, /*timed=*/true);
    });
  }
  while (ready.load() < static_cast<int>(groups.size())) {
    std::this_thread::yield();
  }
  const uint64_t window_start = obs::NowNs();
  deadline_ns = window_start + static_cast<uint64_t>(args.seconds * 1e9);
  go.store(true);
  for (auto& t : threads) t.join();
  const double window_s = MsSince(window_start) / 1000.0;

  ClientLog all;
  for (auto& l : logs) all.Merge(std::move(l));
  const uint64_t window_ops = all.completed;
  conns.clear();

  // Correctness: lookups against the commit history, and the final edge
  // relation (read_write also across a SIGKILL and restart).
  CheckLookups(data, all.answers);
  const uint64_t user_bytes = all.fact_bytes;
  uint64_t last_epoch = daemon.epoch;
  for (const CommitRecord& c : all.answers.commits) {
    last_epoch = std::max(last_epoch, c.epoch);
  }
  const double rss_end_mib = VmHwmMiB(daemon.pid);
  const uint64_t wal_growth = FileBytes(wal_path) - wal_before;
  if (cfg.workload == Workload::kReadWrite) {
    CheckEdgeRelation(data, all.answers, daemon.port, "before kill");
    Stop(&daemon, SIGKILL);
    daemon = Spawn(args.graphlogd, daemon.dir, cfg.fsync, "");
    if (daemon.epoch != last_epoch) {
      Mismatch("restart recovered epoch " + std::to_string(daemon.epoch) +
               ", last acknowledged commit was epoch " +
               std::to_string(last_epoch));
    }
    CheckEdgeRelation(data, all.answers, daemon.port, "after kill+restart");
  }
  Stop(&daemon, SIGTERM);

  const Dist query = Summarize(all.query_ms);
  const Dist op = Summarize(all.op_ms);
  const double failed_frac =
      all.attempted == 0 ? 0 : static_cast<double>(all.failed) / all.attempted;
  const double log_ratio =
      user_bytes == 0 ? 0 : static_cast<double>(wal_growth) / user_bytes;

  auto source = [](const Dist& d, const char* pct, const std::string& how) {
    return std::string(pct) + " of n=" + std::to_string(d.n) + ", " + how;
  };
  auto tail = [&](const Dist& d, const std::string& how) {
    return source(d, ("p" + std::to_string(d.tail_pct)).c_str(), how);
  };
  const std::string query_how = cfg.workload == Workload::kReadWrite
                                    ? "Refresh+Run, closed loop"
                                    : "Run, closed loop";
  const char* op_name = cfg.workload == Workload::kClosureRead ? "round"
                        : cfg.workload == Workload::kPointChurn ? "visit"
                                                                : "commit";
  const std::string op_how = std::string(op_name) + ", closed loop";
  std::printf("== %s  seed=%llu  clients=%d  num_threads=1  fsync=%s  "
              "window=%.2fs%s\n",
              cfg.name.c_str(), static_cast<unsigned long long>(args.seed),
              cfg.clients,
              std::string(durability::FsyncPolicyName(cfg.fsync)).c_str(),
              window_s,
              cfg.lockstep ? "  one load thread, clients in lock-step" : "");
  std::printf("%-30s %14.6g %-6s %llu of %llu ops, %llu overloaded\n",
              "failed_frac", failed_frac, "ratio",
              static_cast<unsigned long long>(all.failed),
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.overloaded));
  std::printf("checked: %llu closure answers, %zu lookups, %zu commits%s\n",
              static_cast<unsigned long long>(all.answers.closure_checked),
              all.answers.lookups.size(), all.answers.commits.size(),
              cfg.workload == Workload::kReadWrite
                  ? "; edge relation before SIGKILL and after restart "
                    "(a kill keeps the page cache: this proves WAL replay, "
                    "not device flush)"
                  : "");
  if (query.n == 0 || op.n == 0) SetupFailure("the window timed no ops");
  // Report only: these spread too much between runs of the same code on a
  // shared host to be gated. On point_churn and read_write the
  // median lookup is sub-millisecond, mostly thread wake-ups on both ends
  // of the socket; and every visit or commit does the same work, so their
  // p90 and p99 measure the host's hiccups, not the program.
  auto report = [](const char* name, double v, const std::string& how) {
    std::printf("%-30s %14.6g %-6s %s\n", name, v, "ms", how.c_str());
  };
  report("query_p50_ms", query.p50, source(query, "p50", query_how));
  report("query_tail_ms", query.tail, tail(query, query_how));
  report("op_p90_ms", op.p90, source(op, "p90", op_how));
  report("op_tail_ms", op.tail, tail(op, op_how));
  for (const auto& [third, v] : all.third_ms) {
    const Dist d = Summarize(v);
    report(("query_p50_ms[" + third + "]").c_str(), d.p50,
           source(d, "p50", "Run of the " + third + " query of a round"));
  }
  // The op metrics under their per-kind names, where they apply.
  if (cfg.workload != Workload::kClosureRead) {
    const std::string name = op_name;
    report((name + "_p50_ms").c_str(), op.p50, "same as op_p50_ms");
    report((name + "_p90_ms").c_str(), op.p90, "same as op_p90_ms");
    report((name + "_tail_ms").c_str(), op.tail, "same as op_tail_ms");
  }
  if (cfg.workload == Workload::kReadWrite) {
    std::printf("%-30s %14.6g %-6s %llu WAL bytes / %llu fact bytes\n",
                "log_bytes_per_user_byte", log_ratio, "ratio",
                static_cast<unsigned long long>(wal_growth),
                static_cast<unsigned long long>(user_bytes));
  }

  PrintResult(
      all.attempted, all.failed,
      {{"ops_per_s", window_ops / window_s, "ops/s",
        std::to_string(window_ops) + " window ops"},
       {"query_p90_ms", query.p90, "ms", source(query, "p90", query_how)},
       {"op_p50_ms", op.p50, "ms", source(op, "p50", op_how)},
       {"setup_s", Median(setup_s), "s",
        "median of " + std::to_string(setup_s.size()) +
            " spawns to first Ping"},
       {"server_rss_mb", rss_mib, "MiB",
        "VmHWM after set-up; " + FormatDouble(rss_end_mib) +
            " MiB at the end"}});
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: serial replays and the per-layer ledger.

/// Spans recorded from the benchmark's own code, kept in memory and
/// written as JSON when the run ends.
struct SpanRec {
  uint32_t op = 0;
  int parent = -1;
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

class Recorder {
 public:
  void SetEnd(int id, uint64_t end_ns) { spans_[id].end_ns = end_ns; }
  int Add(uint32_t op, int parent, std::string name, uint64_t start,
          uint64_t end) {
    spans_.push_back({op, parent, std::move(name), start, end});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Grafts a QueryResponse span tree under `parent`.
  void Import(uint32_t op, int parent, const std::vector<obs::Span>& spans) {
    for (const obs::Span& s : spans) {
      const int id = Add(op, parent, s.name, s.start_ns, s.end_ns);
      Import(op, id, s.children);
    }
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
};

/// Times one call and, when recording, wraps it in a span of exactly the
/// time it returns.
class Timed {
 public:
  Timed(Recorder* rec, uint32_t op, int parent, const char* name)
      : rec_(rec), start_(obs::NowNs()) {
    if (rec_ != nullptr) id_ = rec_->Add(op, parent, name, start_, start_);
  }
  double Done() {
    const uint64_t end = obs::NowNs();
    if (rec_ != nullptr) rec_->SetEnd(id_, end);
    return static_cast<double>(end - start_) / 1e6;
  }
  int id() const { return id_; }

 private:
  Recorder* rec_;
  uint64_t start_;
  int id_ = -1;
};

/// The layer a span's self time belongs to.
const char* LayerOf(const std::string& name) {
  if (name.rfind("op.", 0) == 0) return "remainder";
  if (name.rfind("net.", 0) == 0) return "net";
  if (name.rfind("server.", 0) == 0) return "server";
  if (name.rfind("wal.", 0) == 0) return "durability";
  if (name == "query" || name == "parse" || name == "validate" ||
      name == "translate" || name == "specialize" || name == "summarize") {
    return "graphlog";
  }
  if (name == "stratify") return "datalog";
  return "eval";
}

const std::vector<std::string> kLayers = {"net",     "server", "graphlog",
                                          "datalog", "eval",   "durability",
                                          "remainder"};

/// Counters read around each query, from the in-process registry.
struct QueryCounters {
  double firings = 0, derived = 0, rounds = 0, index_builds = 0, tc = 0,
         rpq = 0;
};

/// What one in-process replay measured.
struct Replay {
  std::vector<OpKind> kinds;          ///< per op
  std::vector<double> op_ms;          ///< per op wall time
  std::vector<double> query_ms;       ///< per query: codec + Session::Run
  std::vector<size_t> op_queries;     ///< per op: index of its first query
  std::vector<double> codec_us;       ///< per query
  std::vector<double> open_ms, close_ms, refresh_ms, apply_ms, wal_ms;
  std::vector<double> parse_us, translate_us, stratify_us, evaluate_ms;
  std::vector<QueryCounters> counters;  ///< per query
  double rows_copied = 0, fsyncs = 0, wal_bytes = 0;
  uint64_t commits = 0, wire_bytes = 0;
  double bytes_per_row = 0;
  size_t metric_families = 0;
  Recorder rec;
  Answers answers;
};

uint64_t FrameBytes(net::MsgType type, const std::string& body) {
  net::Frame f;
  f.type = type;
  f.body = body;
  return net::SerializeFrame(f).size();
}

/// Sums the durations of the spans named `name` in `spans`, recursively.
double SpanUs(const std::vector<obs::Span>& spans, const std::string& name) {
  double us = 0;
  for (const obs::Span& s : spans) {
    if (s.name == name) us += s.duration_ns() / 1e3;
    us += SpanUs(s.children, name);
  }
  return us;
}

class InProcess {
 public:
  InProcess(const Dataset& data, const std::string& dir,
            durability::FsyncPolicy fsync, bool traced)
      : traced_(traced) {
    ServerOptions so;
    so.metrics = &registry_;
    DurabilityOptions dur;
    dur.fsync = fsync;
    server_ = Must(Server::Open(dir, so, dur), "in-process Server::Open");
    WriteBatch seed;
    seed.LoadFile(data.facts_path);
    Must(server_->Apply(seed), "in-process seed");
    for (const char* name :
         {"eval.rule_firings", "eval.tuples_derived", "eval.iterations",
          "eval.index_builds", "tc.invocations", "rpq.invocations",
          "wal.fsyncs", "wal.bytes_appended"}) {
      counters_[name] = registry_.counter(name);
    }
    wal_ns_ = registry_.histogram("wal.append_ns");
  }

  void Run(const std::vector<Op>& stream, int clients, Replay* out) {
    sessions_.resize(clients + kProbeClients);
    for (uint32_t i = 0; i < stream.size(); ++i) {
      const Op& op = stream[i];
      Recorder* rec = traced_ ? &out->rec : nullptr;
      Timed whole(rec, i, -1, (std::string("op.") + OpKindName(op.kind)).c_str());
      out->op_queries.push_back(out->query_ms.size());
      ExecOp(i, whole.id(), op, out);
      out->kinds.push_back(op.kind);
      out->op_ms.push_back(whole.Done());
    }
    // Counters and gauges at the end; families the benchmark registered
    // itself and the program never touched are not the program's.
    const obs::MetricsSnapshot snap = registry_.Snapshot();
    size_t families =
        snap.counters.size() + snap.gauges.size() + snap.histograms.size();
    for (const auto& [name, c] : counters_) {
      if (c->value() == 0) --families;
    }
    if (wal_ns_->snapshot().count == 0) --families;
    out->metric_families = families;
    auto rows = snap.gauges.find("db.rows");
    auto bytes = snap.gauges.find("db.bytes");
    if (rows != snap.gauges.end() && bytes != snap.gauges.end() &&
        rows->second > 0) {
      out->bytes_per_row = static_cast<double>(bytes->second) / rows->second;
    }
  }

 private:
  Session* SessionFor(int client) {
    auto& s = sessions_[client];
    if (s == nullptr) s = Must(server_->OpenSession(), "in-process session");
    return s.get();
  }

  double Count(const char* name) {
    return static_cast<double>(counters_[name]->value());
  }

  /// One query: request codec, Session::Run, response codec.
  void Query(uint32_t i, int parent, Session* session, const Op& op, size_t q,
             Replay* out) {
    Recorder* rec = traced_ ? &out->rec : nullptr;
    const uint64_t t0 = obs::NowNs();
    Timed codec1(rec, i, parent, "net.codec");
    net::WireQuery wq;
    wq.text = op.queries[q];
    std::string body;
    net::EncodeQuery(wq, &body);
    out->wire_bytes += FrameBytes(net::MsgType::kQuery, body);
    net::WireQuery decoded;
    Must(net::DecodeQuery(body, &decoded), "DecodeQuery");
    double codec_ms = codec1.Done();

    QueryCounters before{Count("eval.rule_firings"), Count("eval.tuples_derived"),
                         Count("eval.iterations"), Count("eval.index_builds"),
                         Count("tc.invocations"), Count("rpq.invocations")};
    Timed run(rec, i, parent, "server.run");
    QueryRequest req = QueryRequest::GraphLog(decoded.text);
    req.options.eval.num_threads = decoded.num_threads;
    req.options.observability.tracing = traced_;
    QueryResponse resp = Must(session->Run(std::move(req)), "in-process Run");
    run.Done();
    out->counters.push_back(
        {Count("eval.rule_firings") - before.firings,
         Count("eval.tuples_derived") - before.derived,
         Count("eval.iterations") - before.rounds,
         Count("eval.index_builds") - before.index_builds,
         Count("tc.invocations") - before.tc,
         Count("rpq.invocations") - before.rpq});

    Timed codec2(rec, i, parent, "net.codec");
    net::WireQueryResult wr;
    wr.tuples_derived = resp.stats.datalog.tuples_derived;
    wr.result_tuples = resp.stats.result_tuples;
    wr.graphs_translated = resp.stats.graphs_translated;
    wr.epoch = session->epoch();
    std::string rbody;
    net::EncodeQueryResult(wr, &rbody);
    out->wire_bytes += FrameBytes(net::MsgType::kQueryResult, rbody);
    net::WireQueryResult back;
    Must(net::DecodeQueryResult(rbody, &back), "DecodeQueryResult");
    codec_ms += codec2.Done();
    out->query_ms.push_back(MsSince(t0));
    out->codec_us.push_back(codec_ms * 1e3);

    if (!op.expected.empty()) {
      CheckClosure(op, q, back.result_tuples, &out->answers);
    } else {
      out->answers.lookups.push_back({back.epoch, op.nodes[q], back.result_tuples});
    }
    if (traced_) {
      out->rec.Import(i, run.id(), resp.trace.spans);
      const auto& spans = resp.trace.spans;
      out->parse_us.push_back(SpanUs(spans, "parse"));
      out->translate_us.push_back(SpanUs(spans, "validate") +
                                  SpanUs(spans, "translate") +
                                  SpanUs(spans, "specialize"));
      const double stratify = SpanUs(spans, "stratify");
      out->stratify_us.push_back(stratify);
      out->evaluate_ms.push_back((SpanUs(spans, "evaluate") - stratify) / 1e3);
    }
  }

  void Refresh(uint32_t i, int parent, Session* session, Replay* out) {
    Recorder* rec = traced_ ? &out->rec : nullptr;
    const uint64_t before = session->epoch();
    Timed t(rec, i, parent, "server.refresh");
    Must(session->Refresh(), "in-process Refresh");
    const double ms = t.Done();
    // Only a refresh past a foreign commit copies anything.
    if (session->epoch() != before) out->refresh_ms.push_back(ms);
    std::string body;
    net::EncodeSessionInfo({session->name(), session->epoch()}, &body);
    out->wire_bytes += FrameBytes(net::MsgType::kRefresh, "") +
                       FrameBytes(net::MsgType::kRefreshed, body);
  }

  void ExecOp(uint32_t i, int parent, const Op& op, Replay* out) {
    Recorder* rec = traced_ ? &out->rec : nullptr;
    switch (op.kind) {
      case OpKind::kRound:
        if (op.new_session) {
          Timed closed(rec, i, parent, "server.close_session");
          sessions_[op.client].reset();
          closed.Done();
          Timed opened(rec, i, parent, "server.open_session");
          SessionFor(op.client);
          opened.Done();
        }
        for (size_t q = 0; q < op.queries.size(); ++q) {
          Query(i, parent, SessionFor(op.client), op, q, out);
        }
        break;
      case OpKind::kRead: {
        Session* s = SessionFor(op.client);
        Refresh(i, parent, s, out);
        Query(i, parent, s, op, 0, out);
        break;
      }
      case OpKind::kRefresh:
        Refresh(i, parent, SessionFor(op.client), out);
        break;
      case OpKind::kVisit: {
        Timed codec(rec, i, parent, "net.codec");
        std::string body;
        net::EncodeSessionOpen({}, &body);
        net::WireSessionOpen open;
        Must(net::DecodeSessionOpen(body, &open), "DecodeSessionOpen");
        out->wire_bytes += FrameBytes(net::MsgType::kOpenSession, body);
        codec.Done();
        Timed opened(rec, i, parent, "server.open_session");
        std::unique_ptr<Session> s =
            Must(server_->OpenSession(), "in-process OpenSession");
        out->open_ms.push_back(opened.Done());
        for (size_t q = 0; q < op.queries.size(); ++q) {
          Query(i, parent, s.get(), op, q, out);
        }
        Timed closed(rec, i, parent, "server.close_session");
        s.reset();
        out->close_ms.push_back(closed.Done());
        break;
      }
      case OpKind::kCommit: {
        Session* s = SessionFor(op.client);
        Timed codec(rec, i, parent, "net.codec");
        WriteBatch batch;
        batch.Facts(op.facts);
        std::string body;
        Must(durability::BatchCodec::Encode(batch, {}, &body), "BatchCodec");
        out->wire_bytes += FrameBytes(net::MsgType::kApplyBatch, body);
        WriteBatch decoded;
        std::vector<std::string> files;
        Must(durability::BatchCodec::Decode(body, &decoded, &files),
             "BatchCodec::Decode");
        codec.Done();

        // Version stamps (uid, data generation, size) of the head before
        // the commit; the snapshot itself is released so that freeing it
        // stays inside Apply, where the server drops it.
        std::map<Symbol, std::tuple<uint64_t, uint64_t, size_t>> before;
        for (const auto& [sym, rel] : server_->head()->relations) {
          before[sym] = {rel->uid(), rel->data_generation(), rel->size()};
        }
        const double wal_before = static_cast<double>(wal_ns_->snapshot().sum);
        const double fsyncs = Count("wal.fsyncs");
        const double bytes = Count("wal.bytes_appended");
        Timed apply(rec, i, parent, "server.apply");
        const size_t facts = Must(s->Apply(decoded), "in-process Apply");
        const double apply_ms = apply.Done();
        const double wal_ms =
            (static_cast<double>(wal_ns_->snapshot().sum) - wal_before) / 1e6;
        if (rec != nullptr) {
          // The WAL append's duration comes from wal.append_ns; it runs
          // inside Apply, so it is grafted there (placement approximate).
          const SpanRec& a = rec->spans()[apply.id()];
          rec->Add(i, apply.id(), "wal.append", a.start_ns,
                   a.start_ns + static_cast<uint64_t>(wal_ms * 1e6));
        }
        out->apply_ms.push_back(apply_ms - wal_ms);
        out->wal_ms.push_back(wal_ms);
        out->fsyncs += Count("wal.fsyncs") - fsyncs;
        out->wal_bytes += Count("wal.bytes_appended") - bytes;
        ++out->commits;
        for (const auto& [sym, rel] : server_->head()->relations) {
          auto it = before.find(sym);
          if (it == before.end() ||
              it->second != std::make_tuple(rel->uid(), rel->data_generation(),
                                            rel->size())) {
            out->rows_copied += static_cast<double>(rel->size());
          }
        }
        if (facts != op.edges.size()) {
          Mismatch("in-process commit inserted " + std::to_string(facts) +
                   " facts");
        }
        if (op.relation == "edge") {
          out->answers.commits.push_back({s->epoch(), op.edges});
        }
        Timed codec2(rec, i, parent, "net.codec");
        std::string rbody;
        net::EncodeApplyResult({facts, s->epoch()}, &rbody);
        out->wire_bytes += FrameBytes(net::MsgType::kApplyResult, rbody);
        net::WireApplyResult back;
        Must(net::DecodeApplyResult(rbody, &back), "DecodeApplyResult");
        codec2.Done();
        break;
      }
    }
  }

  bool traced_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<Server> server_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::map<std::string, obs::Counter*> counters_;
  obs::HistogramCell* wal_ns_ = nullptr;
};

/// Self time per layer for every op of a traced replay.
std::vector<std::map<std::string, double>> LayerSelfTimes(const Replay& r) {
  const auto& spans = r.rec.spans();
  std::vector<double> child_ns(spans.size(), 0);
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<std::map<std::string, double>> per_op(r.op_ms.size());
  for (size_t k = 0; k < spans.size(); ++k) {
    const SpanRec& s = spans[k];
    const double self_ms = (static_cast<double>(s.end_ns - s.start_ns) -
                            child_ns[k]) / 1e6;
    per_op[s.op][LayerOf(s.name)] += self_ms;
  }
  return per_op;
}

void WriteTraceJson(const std::string& path, const Config& cfg,
                    const Replay& r) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << cfg.name << "\", \"ops\": [";
  for (size_t i = 0; i < r.kinds.size(); ++i) {
    out << (i ? ", " : "") << "\"" << OpKindName(r.kinds[i]) << "\"";
  }
  out << "], \"spans\": [\n";
  const auto& spans = r.rec.spans();
  for (size_t k = 0; k < spans.size(); ++k) {
    const SpanRec& s = spans[k];
    out << (k ? ",\n" : "") << "{\"id\": " << k << ", \"op\": " << s.op
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}";
  }
  out << "\n]}\n";
  if (!out) SetupFailure("cannot write trace " + path);
}

int RunTraced(const Args& args, const Config& cfg, const Dataset& data) {
  Daemon daemon =
      Spawn(args.graphlogd, args.work + "/store", cfg.fsync, data.facts_path);
  WaitForPing(daemon.port);

  // The serial op stream: the probes, then the closed-loop run's ops,
  // round-robin over the clients, for a share of the run.
  EdgePicker picker(&data, args.seed * 31 + 7);
  std::vector<OpSource> sources;
  for (int c = 0; c < cfg.clients; ++c) {
    sources.emplace_back(cfg, data, args.seed, c, Phase::kMain, &picker);
  }
  std::vector<Op> stream;
  std::vector<RemoteConn> conns(cfg.clients + kProbeClients);
  Answers remote_answers;
  std::vector<RemoteResult> remote;  ///< per op
  std::vector<double> connect_ms;
  uint64_t failed = 0, overloaded = 0;
  auto exec = [&](const Op& op) {
    stream.push_back(op);
    remote.push_back(ExecRemote(op, daemon.port, &conns, &remote_answers));
    const RemoteResult& r = remote.back();
    if (!r.ok) {
      ++failed;
      if (r.overloaded) ++overloaded;
    }
    if (r.connect_ms >= 0) connect_ms.push_back(r.connect_ms);
  };
  std::vector<std::pair<Phase, OpSource>> probe_sources;
  for (Phase p : ProbePhases(cfg)) {
    probe_sources.emplace_back(
        p, OpSource(cfg, data, args.seed, cfg.clients, p, &picker));
  }
  for (auto& [phase, src] : probe_sources) {
    for (int i = 0; i < ProbeOps(cfg, phase); ++i) exec(src.Next());
  }
  const uint64_t t0 = obs::NowNs();
  for (int cycle = 0; cycle == 0 || MsSince(t0) < args.seconds * 300;
       ++cycle) {
    for (int c = 0; c < cfg.clients; ++c) {
      for (int i = 0; i < OpsPerCycle(cfg, c); ++i) exec(sources[c].Next());
    }
  }
  std::vector<double> ping_us;
  {
    RemoteConn conn;
    Must(conn.Ensure(daemon.port), "connect for Ping");
    for (int i = 0; i < 200; ++i) {
      const uint64_t p0 = obs::NowNs();
      Must(conn.client->Ping(), "Ping");
      ping_us.push_back(MsSince(p0) * 1e3);
    }
  }
  conns.clear();
  Stop(&daemon, SIGTERM);
  CheckLookups(data, remote_answers);

  Replay plain, traced;
  InProcess(data, args.work + "/inproc_plain", cfg.fsync, false)
      .Run(stream, cfg.clients, &plain);
  InProcess(data, args.work + "/inproc_traced", cfg.fsync, true)
      .Run(stream, cfg.clients, &traced);
  CheckLookups(data, plain.answers);
  CheckLookups(data, traced.answers);

  // Per op kind: layer self times plus the remainder sum to the op's wall
  // time; the remainder is the op span's own self time.
  const auto per_op = LayerSelfTimes(traced);
  std::printf("== %s traced replay: %zu ops (serial), seed=%llu\n",
              cfg.name.c_str(), stream.size(),
              static_cast<unsigned long long>(args.seed));
  std::printf("%-8s %6s %10s", "op", "n", "wall_ms");
  for (const auto& l : kLayers) std::printf(" %10s", l.c_str());
  std::printf(" %12s %12s\n", "untraced_ms", "overhead_ms");
  double overhead_total = 0;
  for (OpKind kind : {OpKind::kRound, OpKind::kVisit, OpKind::kRead,
                      OpKind::kCommit, OpKind::kRefresh}) {
    size_t n = 0;
    double wall = 0, plain_wall = 0;
    std::map<std::string, double> sums;
    for (size_t i = 0; i < traced.kinds.size(); ++i) {
      if (traced.kinds[i] != kind) continue;
      ++n;
      wall += traced.op_ms[i];
      plain_wall += plain.op_ms[i];
      double attributed = 0;
      for (const auto& [layer, ms] : per_op[i]) {
        sums[layer] += ms;
        attributed += ms;
        if (ms < -0.001) {
          Mismatch(std::string("negative self time in layer ") + layer);
        }
      }
      if (std::fabs(attributed - traced.op_ms[i]) >
          0.01 + 0.01 * traced.op_ms[i]) {
        Mismatch("layer self times sum to " + FormatDouble(attributed) +
                 " ms, op wall time " + FormatDouble(traced.op_ms[i]) + " ms");
      }
    }
    if (n == 0) continue;
    overhead_total += wall - plain_wall;
    std::printf("%-8s %6zu %10.4f", OpKindName(kind), n, wall / n);
    for (const auto& l : kLayers) std::printf(" %10.4f", sums[l] / n);
    std::printf(" %12.4f %12.4f\n", plain_wall / n, (wall - plain_wall) / n);
  }
  std::printf("(ms per op; layer self times + remainder = wall_ms; "
              "overhead = traced - untraced in-process)\n");
  if (!args.trace_out.empty()) WriteTraceJson(args.trace_out, cfg, traced);

  // Per query of an op that succeeded remotely: remote Run time minus the
  // in-process time of the same query (wire, admission, scheduling).
  std::vector<double> remainder_ms;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (!remote[i].ok) continue;
    const size_t first = plain.op_queries[i];
    for (size_t q = 0; q < remote[i].run_ms.size(); ++q) {
      remainder_ms.push_back(remote[i].run_ms[q] - plain.query_ms[first + q]);
    }
  }
  double firings = 0, derived = 0, rounds = 0, builds = 0, tc = 0, rpq = 0;
  for (const QueryCounters& c : traced.counters) {
    firings += c.firings;
    derived += c.derived;
    rounds += c.rounds;
    builds += c.index_builds;
    tc += c.tc;
    rpq += c.rpq;
  }
  const double queries = static_cast<double>(traced.counters.size());
  double eval_ms = 0;
  for (double v : traced.evaluate_ms) eval_ms += v;
  const double commits = static_cast<double>(traced.commits);

  const std::string per_query = "mean per query";
  const std::string med_query = "median per query";
  PrintResult(
      stream.size(), failed,
      {{"net.connect_ms", Median(connect_ms), "ms", "median, remote visits"},
       {"net.ping_us", Median(ping_us), "us", "median of 200, remote"},
       {"net.codec_us", Median(traced.codec_us), "us", med_query},
       {"net.remainder_ms", Median(remainder_ms), "ms",
        "median of remote minus in-process, per query"},
       {"net.bytes_per_op",
        static_cast<double>(plain.wire_bytes) / stream.size(), "B",
        "frame bytes, mean per op"},
       {"net.rejected", static_cast<double>(overloaded), "count",
        "kOverloaded in the remote replay"},
       {"server.open_session_ms", Median(traced.open_ms), "ms", "median"},
       {"server.close_session_ms", Median(traced.close_ms), "ms", "median"},
       {"server.refresh_ms", Median(traced.refresh_ms), "ms",
        "median, after a foreign commit"},
       {"server.apply_ms", Median(traced.apply_ms), "ms",
        "median, Session::Apply minus WAL append"},
       {"server.rows_copied_per_commit", traced.rows_copied / commits, "rows",
        "mean"},
       {"graphlog.parse_us", Median(traced.parse_us), "us", med_query},
       {"graphlog.translate_us", Median(traced.translate_us), "us",
        med_query},
       {"datalog.stratify_us", Median(traced.stratify_us), "us", med_query},
       {"eval.evaluate_ms", Median(traced.evaluate_ms), "ms", med_query},
       {"eval.rule_firings", firings / queries, "count", per_query},
       {"eval.rounds", rounds / queries, "count", per_query},
       {"eval.us_per_firing", firings > 0 ? eval_ms * 1e3 / firings : 0, "us",
        "evaluate time / firings"},
       {"eval.useful_ratio", firings > 0 ? derived / firings : 0, "ratio",
        "tuples_derived / rule_firings"},
       {"eval.index_builds", builds / queries, "count", per_query},
       {"storage.bytes_per_row", traced.bytes_per_row, "B",
        "db.bytes / db.rows at the end"},
       {"wal.append_ms", Median(traced.wal_ms), "ms", "median per commit"},
       {"wal.fsyncs_per_commit", traced.fsyncs / commits, "count", "mean"},
       {"wal.bytes_per_commit", traced.wal_bytes / commits, "B", "mean"},
       {"tc.invocations", tc / queries, "count", per_query},
       {"rpq.invocations", rpq / queries, "count", per_query},
       {"obs.metric_families", static_cast<double>(traced.metric_families),
        "count", "registry entries at the end"},
       {"trace.overhead_ms", overhead_total / stream.size(), "ms",
        "traced minus untraced in-process, per op"}});
  return 0;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) SetupFailure(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val());
    else if (k == "--graphlogd") a.graphlogd = val();
    else if (k == "--work") a.work = val();
    else if (k == "--trace-out") a.trace_out = val();
    else if (k == "--tiny") a.tiny = true;
    else if (k == "--corrupt-expected") g_corrupt_expected = true;
    else SetupFailure("unknown flag " + k);
  }
  if (a.workload.empty() || a.graphlogd.empty() || a.work.empty()) {
    SetupFailure("usage: e2e_bench --workload W --seed N --seconds S "
                 "--trace 0|1 --graphlogd PATH --work DIR [--trace-out F] "
                 "[--tiny] [--corrupt-expected]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const Args args = ParseArgs(argc, argv);
  const Config cfg = MakeConfig(args.workload, args.tiny);
  std::filesystem::create_directories(args.work);
  const Dataset data = MakeDataset(cfg, args.seed, args.work);
  return args.trace != 0 ? RunTraced(args, cfg, data)
                         : RunEndToEnd(args, cfg, data);
}
