// Copyright (c) the XKeyword authors.
//
// xkperf: the repository benchmark (see perfbench/NOTES.md for why each
// workload exists and which layer it loads).
//
//   xkperf --workload <zipf_socket|unique_prepare|disk_cold_pool>
//          --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//          [--data-dir <dir>]
//
// One run sets up the bench-scale DBLP fixture several times (setup_s is the
// median), drives the workload closed-loop for --seconds, then checks every
// answer byte-for-byte against the num_threads = 1 answer computed in-process
// after the timed phase. With --trace 1 it additionally replays a sample of
// the stream layer by layer, timing calls into each layer's public functions
// from outside and recording each call as an in-memory span, and prints the
// per-layer metrics instead of the end-to-end ones. The last line of stdout
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cn/cn_generator.h"
#include "cn/ctssn.h"
#include "datagen/dblp_gen.h"
#include "decomp/decomposition.h"
#include "engine/topk_executor.h"
#include "engine/xkeyword.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/query_service.h"

namespace {

using xk::engine::CacheMode;
using xk::engine::QueryRequest;
using xk::engine::QueryResponse;
using Bag = std::vector<std::string>;

constexpr char kDecomposition[] = "XKeyword";
/// Fixture set-ups per run; setup_s and the datagen/load/materialize layer
/// times are their medians (single set-ups spread 2.1-3.3 s on one host).
constexpr int kSetupRepeats = 3;
/// Closed-loop connections of zipf_socket.
constexpr int kSocketClients = 4;
/// zipf_socket: probability that a request repeats an earlier bag rather
/// than drawing a fresh one. Fixing it (instead of drawing i.i.d. from a
/// fixed pool) keeps the answer-cache hit share independent of how many
/// requests a run completes, so a faster engine does not slide p50 from the
/// miss mode into the hit mode.
constexpr double kRepeatShare = 0.30;
/// Guard band for the zipf_socket answer-cache hit share.
constexpr double kHitShareLow = 0.20;
constexpr double kHitShareHigh = 0.40;
/// Zipf skew of the keyword ranks of fresh zipf_socket bags.
constexpr double kZipfTheta = 1.0;
/// disk_cold_pool: buffer pool far below the ~65 MB page file, so the
/// working set of every query spills out of the pool.
constexpr size_t kDiskPoolBytes = size_t{2} << 20;
/// disk_cold_pool sends every pair of the most frequent author names once.
constexpr size_t kDiskHeadAuthors = 64;
/// Untimed requests before the timed phase (thread pools, allocator, pool).
constexpr size_t kWarmupRequests = 8;
/// Distinct bags replayed layer by layer in the traced run.
constexpr size_t kReplayBags = 25;
/// Distinct bags replayed at global_k = 10 for engine.global_k_mismatch.
constexpr size_t kGlobalKBags = 60;
constexpr size_t kGlobalK = 10;
/// Untimed reference answers are computed on this many threads.
constexpr int kVerifyThreads = 4;

enum class Workload { kZipfSocket, kUniquePrepare, kDiskColdPool };

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "xkperf: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Check(xk::Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return r.MoveValueUnsafe();
}

void Check(const xk::Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

// --- Arguments -------------------------------------------------------------

struct Args {
  Workload workload = Workload::kZipfSocket;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
  std::string data_dir = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload_name = value;
      have_workload = true;
      if (value == "zipf_socket") {
        args.workload = Workload::kZipfSocket;
      } else if (value == "unique_prepare") {
        args.workload = Workload::kUniquePrepare;
      } else if (value == "disk_cold_pool") {
        args.workload = Workload::kDiskColdPool;
      } else {
        Die("unknown workload " + value);
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    Die("usage: xkperf --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  return args;
}

// --- Statistics ------------------------------------------------------------

/// Regularized incomplete beta function I_x(a, b), by its continued fraction
/// (modified Lentz).
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  if (x > (a + 1) / (a + b + 2)) return 1 - IncompleteBeta(b, a, 1 - x);
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x)) / a;
  constexpr double kTiny = 1e-300;
  auto clamp_tiny = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1;
  double d = 1 / clamp_tiny(1 - (a + b) * x / (a + 1));
  double h = d;
  for (int m = 1; m <= 500; ++m) {
    const double even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m));
    d = 1 / clamp_tiny(1 + even * d);
    c = clamp_tiny(1 + even / c);
    h *= c * d;
    const double odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1));
    d = 1 / clamp_tiny(1 + odd * d);
    c = clamp_tiny(1 + odd / c);
    h *= c * d;
    if (std::fabs(c * d - 1) < 1e-14) break;
  }
  return front * h;
}

/// Harrell-Davis estimate of the p-quantile (p in (0, 1)): a mean of all order
/// statistics weighted by the Beta((n + 1) p, (n + 1) (1 - p)) distribution.
/// In a sparse tail it has far less sampling noise than one order statistic
/// (bootstrap of p95 over ~300 samples: about a third less sampling spread).
double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double below = 0, sum = 0;
  for (size_t i = 1; i <= v.size(); ++i) {
    const double upto = IncompleteBeta(p * (n + 1), (1 - p) * (n + 1),
                                       static_cast<double>(i) / n);
    sum += (upto - below) * v[i - 1];
    below = upto;
  }
  return sum;
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Seeded query streams --------------------------------------------------

/// The benchmark's own generator (not the library's), so workload inputs stay
/// fixed when the library's random utilities change.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}
  size_t Below(size_t n) { return static_cast<size_t>(engine_() % n); }
  double Unit() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }

 private:
  std::mt19937_64 engine_;
};

class Zipf {
 public:
  Zipf(size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(Rng* rng) const {
    const double u = rng->Unit();
    const size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::string BagKey(const Bag& bag) {
  std::string key;
  for (const std::string& k : bag) key += k + '\x1f';
  return key;
}

/// A bag is unordered: each distinct bag is issued in one keyword order only.
std::string UnorderedKey(Bag bag) {
  std::sort(bag.begin(), bag.end());
  return BagKey(bag);
}

/// An unbounded, deterministic sequence of keyword bags. Clients claim
/// indices from a shared counter; At(i) generates lazily up to i under a lock,
/// so the content of index i depends only on the seed, never on timing.
class Stream {
 public:
  Stream(Workload workload, const xk::datagen::DblpDatabase& db, uint64_t seed)
      : workload_(workload),
        authors_(db.author_names()),
        words_(db.title_words()),
        rng_(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(workload)),
        author_zipf_(authors_.size(), kZipfTheta),
        word_zipf_(words_.size(), kZipfTheta) {
    if (workload_ == Workload::kDiskColdPool) {
      // Every Zipf-head pair, in a seeded order; each is sent once.
      const size_t ha = std::min(kDiskHeadAuthors, authors_.size());
      for (size_t a = 0; a < ha; ++a) {
        for (size_t b = a + 1; b < ha; ++b) head_.push_back({authors_[a], authors_[b]});
      }
      for (size_t i = head_.size(); i > 1; --i) {
        std::swap(head_[i - 1], head_[rng_.Below(i)]);
      }
    }
  }

  Bag At(size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    while (bags_.size() <= i) bags_.push_back(Generate());
    return bags_[i];
  }

 private:
  Bag Generate() {
    switch (workload_) {
      case Workload::kZipfSocket: {
        if (!issued_.empty() && rng_.Unit() < kRepeatShare) {
          // Zipf (theta = 1) over earlier distinct bags by first appearance,
          // by the continuous inverse CDF: P(rank <= r) = ln(r + 1) / ln(n + 1).
          const double n = static_cast<double>(issued_.size());
          const size_t rank = static_cast<size_t>(std::pow(n + 1, rng_.Unit())) - 1;
          return issued_[std::min(rank, issued_.size() - 1)];
        }
        for (int attempt = 0; attempt < 1000; ++attempt) {
          Bag bag;
          const std::string& a = authors_[author_zipf_.Sample(&rng_)];
          if (rng_.Unit() < 0.5) {
            const std::string& b = authors_[author_zipf_.Sample(&rng_)];
            if (a == b) continue;
            bag = {a, b};
          } else {
            bag = {a, words_[word_zipf_.Sample(&rng_)]};
          }
          if (seen_.insert(UnorderedKey(bag)).second) {
            issued_.push_back(bag);
            return bag;
          }
        }
        return issued_[rng_.Below(issued_.size())];
      }
      case Workload::kUniquePrepare: {
        while (true) {
          const std::string& a = authors_[rng_.Below(authors_.size())];
          const std::string& w = words_[rng_.Below(words_.size())];
          const std::string& b = authors_[rng_.Below(authors_.size())];
          if (a == b) continue;
          Bag bag = {a, w, b};
          if (seen_.insert(UnorderedKey(bag)).second) {
            return bag;
          }
        }
      }
      case Workload::kDiskColdPool:
        return head_[bags_.size() % head_.size()];
    }
    return {};
  }

  const Workload workload_;
  const std::vector<std::string>& authors_;
  const std::vector<std::string>& words_;
  Rng rng_;
  Zipf author_zipf_;
  Zipf word_zipf_;
  std::vector<Bag> head_;
  std::vector<Bag> issued_;
  std::unordered_set<std::string> seen_;
  std::mutex mu_;  // guards everything above through At()
  std::vector<Bag> bags_;
};

QueryRequest MakeRequest(const Bag& bag) {
  QueryRequest request;
  request.keywords = bag;
  request.decomposition = kDecomposition;
  return request;
}

/// The bytes that must agree between an answer and its reference: the MTTON
/// list in wire encoding, completeness and status code.
std::string AnswerBytes(const QueryResponse& r) {
  std::string out = xk::net::EncodeBatchFrame(0, r.mttons);
  out.push_back(static_cast<char>(r.completeness));
  out.push_back(static_cast<char>(r.status.code()));
  return out;
}

// --- Fixture ---------------------------------------------------------------

struct Fixture {
  std::unique_ptr<xk::datagen::DblpDatabase> db;
  std::unique_ptr<xk::engine::XKeyword> xk;
  double generate_s = 0;
  double load_s = 0;
  double materialize_s = 0;
};

void AddXKeywordDecomposition(xk::engine::XKeyword* engine,
                              const xk::schema::TssGraph& tss) {
  Check(engine->AddDecomposition(
            Check(xk::decomp::MakeXKeyword(tss, /*B=*/2, /*M=*/6), "decomposition")),
        "materialize");
}

Fixture SetUp(Workload workload, const std::string& data_dir) {
  Fixture f;
  xk::datagen::DblpConfig config;  // DblpBench's default scale
  config.num_conferences = 10;
  config.years_per_conference = 6;
  config.avg_papers_per_year = 20;
  config.avg_citations_per_paper = 20.0;
  config.author_vocab = 200;
  config.title_vocab = 200;
  config.seed = 2003;
  int64_t t0 = NowNs();
  f.db = Check(xk::datagen::DblpDatabase::Generate(config), "generate");
  int64_t t1 = NowNs();
  xk::storage::StorageOptions storage;
  if (workload == Workload::kDiskColdPool) {
    storage.backend = xk::storage::StorageBackend::kDisk;
    storage.buffer_pool_bytes = kDiskPoolBytes;
    storage.data_dir = data_dir;
  }
  f.xk = Check(xk::engine::XKeyword::Load(&f.db->graph(), &f.db->schema(),
                                          &f.db->tss(), storage),
               "load");
  int64_t t2 = NowNs();
  AddXKeywordDecomposition(f.xk.get(), f.db->tss());
  int64_t t3 = NowNs();
  f.generate_s = Seconds(t1 - t0);
  f.load_s = Seconds(t2 - t1);
  f.materialize_s = Seconds(t3 - t2);
  return f;
}

// --- Tracing ---------------------------------------------------------------

/// In-memory span recorder of the traced run. Spans are written out at exit.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit Tracer(bool on) : on_(on) {}

  /// Runs `fn`, recording it as span `name` of `request` when tracing is on.
  template <typename Fn>
  auto Time(const char* name, const char* parent, uint64_t request, Fn&& fn) {
    if (!on_) return fn();
    const int64_t start = NowNs();
    auto result = fn();
    spans_.push_back(Span{name, parent, request, start, NowNs()});
    return result;
  }

  void Record(const char* name, const char* parent, uint64_t request,
              int64_t start, int64_t end) {
    if (on_) spans_.push_back(Span{name, parent, request, start, end});
  }

  /// Duration of span `name` of `request` (the last one recorded), or -1.
  int64_t Duration(const char* name, uint64_t request) const {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->request == request && std::strcmp(it->name, name) == 0) {
        return it->end_ns - it->start_ns;
      }
    }
    return -1;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "request\tname\tparent\tstart_ns\tend_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%llu\t%s\t%s\t%lld\t%lld\n",
                   static_cast<unsigned long long>(s.request), s.name, s.parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// --- The run ---------------------------------------------------------------

struct Sample {
  size_t index = 0;  // position in the stream
  int64_t latency_ns = 0;
  bool ok = false;
  std::string answer;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)), tracer_(args_.trace) {}

  int Run();

 private:
  void SetUpRepeatedly();
  void StartServing();
  QueryResponse SubmitWait(const QueryRequest& request, bool* ok);
  Sample Send(int client, size_t index);
  void TimedPhase();
  void Verify();
  void Replay();
  void ReplayOne(uint64_t request_id, const Bag& bag, bool traced);
  void CountGlobalKMismatch();
  void CheckModeGuard();
  std::vector<Bag> DistinctBags(size_t n);
  void Emit();

  const Args args_;
  Tracer tracer_;
  std::string tier_dir_;
  std::vector<double> generate_s_, load_s_, materialize_s_, setup_s_;
  Fixture fixture_;
  std::unique_ptr<Stream> stream_;
  std::unique_ptr<xk::service::QueryService> service_;
  std::unique_ptr<xk::net::Server> server_;
  std::vector<xk::net::Client> clients_;

  std::vector<Sample> samples_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  double wall_s_ = 0;
  double cpu_s_ = 0;
  double peak_rss_mb_ = 0;
  xk::service::MetricsSnapshot before_, after_;

  // Per-request layer values of the traced replay.
  std::map<std::string, std::vector<double>> layer_;
  // Summed numerators/denominators of the replay's ratio metrics.
  std::map<std::string, std::pair<double, double>> ratio_;
  double global_k_mismatch_ = 0;
  std::vector<std::string> guard_failures_;
};

void Bench::SetUpRepeatedly() {
  if (args_.workload == Workload::kDiskColdPool) {
    tier_dir_ = args_.data_dir + "/xkperf-pages-" + std::to_string(getpid());
    if (mkdir(tier_dir_.c_str(), 0755) != 0) Die("cannot create " + tier_dir_);
  }
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture_ = Fixture{};  // release the previous copy first
    fixture_ = SetUp(args_.workload, tier_dir_);
    generate_s_.push_back(fixture_.generate_s);
    load_s_.push_back(fixture_.load_s);
    materialize_s_.push_back(fixture_.materialize_s);
    setup_s_.push_back(fixture_.generate_s + fixture_.load_s + fixture_.materialize_s);
  }
}

void Bench::StartServing() {
  service_ = Check(xk::service::QueryService::Create(fixture_.xk.get()), "service");
  if (args_.workload != Workload::kZipfSocket) return;
  server_ = Check(xk::net::Server::Start(service_.get()), "server");
  for (int c = 0; c < kSocketClients; ++c) {
    clients_.push_back(Check(xk::net::Client::Connect(server_->port()), "connect"));
  }
}

QueryResponse Bench::SubmitWait(const QueryRequest& request, bool* ok) {
  xk::Result<xk::service::QueryHandle> handle = service_->Submit(request);
  if (!handle.ok()) {
    *ok = false;  // refused
    return {};
  }
  xk::Result<QueryResponse> response = handle->Wait();
  *ok = response.ok() && response->status.ok();
  return response.ok() ? response.MoveValueUnsafe() : QueryResponse{};
}

Sample Bench::Send(int client, size_t index) {
  Sample s;
  s.index = index;
  const QueryRequest request = MakeRequest(stream_->At(index));
  QueryResponse response;
  const int64_t start = NowNs();
  if (args_.workload == Workload::kZipfSocket) {
    xk::Result<QueryResponse> r = clients_[static_cast<size_t>(client)].Run(request);
    s.ok = r.ok() && r->status.ok();
    if (r.ok()) response = r.MoveValueUnsafe();
  } else {
    response = SubmitWait(request, &s.ok);
  }
  s.latency_ns = NowNs() - start;
  if (s.ok) s.answer = AnswerBytes(response);
  return s;
}

void Bench::TimedPhase() {
  for (size_t i = 0; i < kWarmupRequests; ++i) Send(0, i);
  const int clients = args_.workload == Workload::kZipfSocket ? kSocketClients : 1;
  std::atomic<size_t> next{kWarmupRequests};
  std::vector<std::vector<Sample>> per_client(static_cast<size_t>(clients));
  before_ = service_->metrics().Snapshot();
  const double cpu0 = CpuSeconds();
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(args_.seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (NowNs() < stop) {
        per_client[static_cast<size_t>(c)].push_back(Send(c, next.fetch_add(1)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  wall_s_ = Seconds(NowNs() - start);
  cpu_s_ = CpuSeconds() - cpu0;
  after_ = service_->metrics().Snapshot();
  peak_rss_mb_ = PeakRssMb();
  for (auto& v : per_client) {
    for (Sample& s : v) samples_.push_back(std::move(s));
  }
  std::sort(samples_.begin(), samples_.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  attempted_ = samples_.size();
}

void Bench::Verify() {
  // One untimed num_threads = 1 reference per distinct bag, in-process.
  std::vector<Bag> bags;
  std::unordered_map<std::string, size_t> slot;
  for (const Sample& s : samples_) {
    Bag bag = stream_->At(s.index);
    if (slot.emplace(BagKey(bag), bags.size()).second) bags.push_back(bag);
  }
  // Concurrent num_threads = 1 runs on the disk engine would thrash its small
  // pool; answers are byte-identical across backends by design, so the disk
  // workload's reference runs on an in-memory load of the same database.
  const xk::engine::XKeyword* engine = fixture_.xk.get();
  std::unique_ptr<xk::engine::XKeyword> memory;
  if (args_.workload == Workload::kDiskColdPool) {
    const xk::datagen::DblpDatabase& db = *fixture_.db;
    memory = Check(xk::engine::XKeyword::Load(&db.graph(), &db.schema(), &db.tss()),
                   "load reference");
    AddXKeywordDecomposition(memory.get(), db.tss());
    engine = memory.get();
  }
  std::vector<std::optional<std::string>> reference(bags.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kVerifyThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < bags.size(); i = next.fetch_add(1)) {
        QueryRequest request = MakeRequest(bags[i]);
        request.options.num_threads = 1;
        xk::Result<QueryResponse> r = engine->Run(request);
        if (r.ok() && r->status.ok()) reference[i] = AnswerBytes(*r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (Sample& s : samples_) {
    const std::optional<std::string>& ref = reference[slot.at(BagKey(stream_->At(s.index)))];
    const bool mismatch = s.ok && (!ref.has_value() || *ref != s.answer);
    if (!s.ok || mismatch) {
      ++failed_;
      if (failed_ <= 5) {
        std::fprintf(stderr, "xkperf: request %zu (%s) %s\n", s.index,
                     BagKey(stream_->At(s.index)).c_str(),
                     mismatch ? "answer differs from the num_threads = 1 answer"
                              : "failed or was refused");
      }
    }
    s.ok = s.ok && !mismatch;
    s.answer.clear();
  }
}

std::vector<Bag> Bench::DistinctBags(size_t n) {
  std::vector<Bag> out;
  std::unordered_set<std::string> seen;
  for (size_t i = kWarmupRequests; out.size() < n; ++i) {
    Bag bag = stream_->At(i);
    if (seen.insert(BagKey(bag)).second) out.push_back(std::move(bag));
  }
  return out;
}

/// One bag through every layer, each call timed from outside. `traced` = false
/// runs the identical calls with the span recorder off (the overhead baseline).
void Bench::ReplayOne(uint64_t id, const Bag& bag, bool traced) {
  const xk::engine::XKeyword& xk = *fixture_.xk;
  Tracer off(false);
  Tracer& tr = traced ? tracer_ : off;
  QueryRequest request = MakeRequest(bag);
  request.cache_mode = CacheMode::kBypass;
  xk::engine::QueryOptions options = request.options;

  // The engine as one call first, so the disk pool holds only the previous
  // bag's pages, as in the timed stream.
  xk::storage::StorageTier* tier = fixture_.xk->data().storage_tier.get();
  const uint64_t evictions0 = tier != nullptr ? tier->PoolStats().evictions : 0;
  QueryResponse run = tr.Time("engine.run", "request", id, [&] {
    return Check(xk.Run(request), "engine run");
  });
  const uint64_t evictions1 = tier != nullptr ? tier->PoolStats().evictions : 0;

  std::vector<std::vector<xk::schema::SchemaNodeId>> nodes;
  tr.Time("keyword.lookup", "engine.prepare", id, [&] {
    size_t n = 0;
    for (const std::string& k : bag) {
      nodes.push_back(xk.master_index().SchemaNodesContaining(k));
      n += xk.master_index().ContainingList(k).size();
    }
    return n;
  });
  xk::cn::CnGeneratorOptions gen_options;
  gen_options.max_size = options.max_size_z;
  const xk::cn::CnGenerator generator(&xk.schema(), gen_options);
  std::vector<xk::cn::CandidateNetwork> networks = tr.Time(
      "cn.generate", "engine.prepare", id,
      [&] { return Check(generator.Generate(nodes), "generate CNs"); });
  tr.Time("cn.reduce", "engine.prepare", id, [&] {
    size_t n = 0;
    for (const xk::cn::CandidateNetwork& network : networks) {
      n += xk::cn::ReduceToCtssn(network, xk.schema(), xk.tss()).ok() ? 1 : 0;
    }
    return n;
  });
  xk::engine::PreparedQuery prepared = tr.Time("engine.prepare", "request", id, [&] {
    return Check(xk.Prepare(bag, kDecomposition, options), "prepare");
  });
  xk::engine::ExecutionStats stats;
  xk::engine::Coverage coverage;
  tr.Time("engine.execute", "request", id, [&] {
    return Check(xk::engine::TopKExecutor().Run(prepared, options, &stats, &coverage),
                 "execute");
  });
  bool ok = false;
  tr.Time("service.submit_wait", "request", id, [&] { return SubmitWait(request, &ok); });
  if (!ok) Die("replay submit failed");
  std::vector<std::vector<xk::present::Mtton>> batches;
  QueryResponse wire;
  if (!clients_.empty()) {
    // Back to back, as in the closed loop: after an idle gap the kernel acks
    // at once (quick-ack), which hides the delayed-ACK stall that the misses
    // of the timed phase pay.
    Check(clients_[0].Run(request), "client run");
    wire = tr.Time("net.client_run", "request", id, [&] {
      return Check(clients_[0].Run(request, &batches), "client run");
    });
  }
  if (!traced) return;

  auto ms = [&](const char* name) { return Millis(tracer_.Duration(name, id)); };
  layer_["keyword.lookup_ms"].push_back(ms("keyword.lookup"));
  layer_["cn.generate_ms"].push_back(ms("cn.generate"));
  layer_["cn.networks"].push_back(static_cast<double>(networks.size()));
  layer_["cn.reduce_ms"].push_back(ms("cn.reduce"));
  layer_["engine.prepare_ms"].push_back(ms("engine.prepare"));
  layer_["opt.plan_ms"].push_back(ms("engine.prepare") - ms("keyword.lookup") -
                                  ms("cn.generate") - ms("cn.reduce"));
  layer_["engine.execute_ms"].push_back(ms("engine.execute"));
  layer_["exec.rows_scanned"].push_back(static_cast<double>(stats.probes.rows_scanned));
  layer_["exec.probes"].push_back(static_cast<double>(stats.probes.probes));
  layer_["exec.results"].push_back(static_cast<double>(stats.results));
  auto add_ratio = [&](const char* name, double num, double den) {
    ratio_[name].first += num;
    ratio_[name].second += den;
  };
  add_ratio("exec.bloom_skip_ratio", static_cast<double>(stats.probes.bloom_skips),
            static_cast<double>(stats.probes.probes));
  add_ratio("exec.partial_cache_hit_ratio", static_cast<double>(stats.cache_hits),
            static_cast<double>(stats.cache_hits + stats.cache_misses));
  add_ratio("opt.subplan_hit_ratio", static_cast<double>(stats.subplan_hits),
            static_cast<double>(stats.subplan_hits + stats.subplan_misses));
  // Page counters in-process, from the engine's own response.
  const xk::engine::ExecutionStats& io = run.stats;
  layer_["storage.page_misses"].push_back(static_cast<double>(io.page_misses));
  layer_["storage.read_mb"].push_back(static_cast<double>(io.page_read_bytes) / 1e6);
  layer_["storage.evictions"].push_back(static_cast<double>(evictions1 - evictions0));
  add_ratio("storage.page_hit_ratio", static_cast<double>(io.page_hits),
            static_cast<double>(io.page_hits + io.page_misses));
  layer_["service.self_ms"].push_back(ms("service.submit_wait") - ms("engine.run"));
  if (!clients_.empty()) {
    layer_["net.self_ms"].push_back(ms("net.client_run") - ms("service.submit_wait"));
    layer_["net.batches_per_query"].push_back(static_cast<double>(batches.size()));
    // The frames the server sent: every streamed batch plus the final frame
    // carrying the tail.
    size_t bytes = 0, streamed = 0;
    for (const auto& batch : batches) {
      bytes += xk::net::EncodeBatchFrame(1, batch).size();
      streamed += batch.size();
    }
    bytes += xk::net::EncodeFinalFrame(1, wire, streamed).size();
    layer_["net.bytes_per_query"].push_back(static_cast<double>(bytes));
  }
}

void Bench::Replay() {
  const std::vector<Bag> bags = DistinctBags(kReplayBags);
  std::vector<double> overhead;
  for (size_t i = 0; i < bags.size(); ++i) {
    const uint64_t id = i + 1;
    const int64_t t0 = NowNs();
    ReplayOne(id, bags[i], /*traced=*/true);
    const int64_t t1 = NowNs();
    tracer_.Record("request", "", id, t0, t1);
    ReplayOne(id, bags[i], /*traced=*/false);
    const int64_t t2 = NowNs();
    overhead.push_back(static_cast<double>((t1 - t0) - (t2 - t1)) /
                       static_cast<double>(t2 - t1));
  }
  layer_["trace.overhead_share"].push_back(Median(overhead));
}

void Bench::CountGlobalKMismatch() {
  // ROADMAP item 1's race, kept off the failure gate: default options against
  // num_threads = 1, both at global_k = 10.
  for (const Bag& bag : DistinctBags(kGlobalKBags)) {
    QueryRequest request = MakeRequest(bag);
    request.options.global_k = kGlobalK;
    const std::string fast = AnswerBytes(Check(fixture_.xk->Run(request), "global-k run"));
    request.options.num_threads = 1;
    const std::string serial =
        AnswerBytes(Check(fixture_.xk->Run(request), "global-k serial run"));
    if (fast != serial) global_k_mismatch_ += 1;
  }
}

double HitShare(const xk::service::MetricsSnapshot& a,
                const xk::service::MetricsSnapshot& b) {
  const double hits = static_cast<double>(b.cache_hits - a.cache_hits);
  const double total = hits + static_cast<double>(b.cache_misses - a.cache_misses) +
                       static_cast<double>(b.coalesced - a.coalesced);
  return Ratio(hits, total);
}

void Bench::CheckModeGuard() {
  const double share = HitShare(before_, after_);
  if (args_.workload == Workload::kZipfSocket) {
    if (share < kHitShareLow || share > kHitShareHigh) {
      guard_failures_.push_back("zipf_socket answer-cache hit share " +
                                std::to_string(share) + " left [0.20, 0.40]");
    }
  } else if (share != 0) {
    // Every bag of these streams is distinct; a hit means the stream ran out.
    guard_failures_.push_back(args_.workload_name + ": answer-cache hit share " +
                              std::to_string(share) + ", expected 0");
  }
  if (!args_.trace) return;
  const double generate = Median(layer_["cn.generate_ms"]);
  const double prepare_execute =
      Median(layer_["engine.prepare_ms"]) + Median(layer_["engine.execute_ms"]);
  if (args_.workload == Workload::kUniquePrepare && generate < 0.5 * prepare_execute) {
    guard_failures_.push_back("unique_prepare: cn.generate_ms " + std::to_string(generate) +
                              " under half of prepare+execute " +
                              std::to_string(prepare_execute));
  }
  const double misses = Median(layer_["storage.page_misses"]);
  const bool disk = args_.workload == Workload::kDiskColdPool;
  if (disk ? misses == 0 : misses != 0) {
    guard_failures_.push_back(args_.workload_name + ": storage.page_misses " +
                              std::to_string(misses));
  }
}

void Bench::Emit() {
  std::vector<Metric> metrics;
  if (!args_.trace) {
    // Failed requests have no latency; they count in `failed` and make the
    // run incorrect.
    std::vector<double> latencies;
    for (const Sample& s : samples_) {
      if (s.ok) latencies.push_back(Millis(s.latency_ns));
    }
    metrics = {
        {"setup_s", Median(setup_s_), "s"},
        {"qps", Ratio(static_cast<double>(attempted_ - failed_), wall_s_), "1/s"},
        {"p50_ms", Quantile(latencies, 0.50), "ms"},
        {"p95_ms", Quantile(latencies, 0.95), "ms"},
        {"cpu_ms_per_query", Ratio(cpu_s_ * 1e3, static_cast<double>(attempted_)), "ms"},
        {"peak_rss_mb", peak_rss_mb_, "MB"},
    };
  } else {
    auto median = [&](const char* name) { return Median(layer_[name]); };
    auto ratio = [&](const char* name) {
      return Ratio(ratio_[name].first, ratio_[name].second);
    };
    metrics = {
        {"datagen.generate_s", Median(generate_s_), "s"},
        {"engine.load_s", Median(load_s_), "s"},
        {"decomp.materialize_s", Median(materialize_s_), "s"},
        {"keyword.lookup_ms", median("keyword.lookup_ms"), "ms"},
        {"cn.generate_ms", median("cn.generate_ms"), "ms"},
        {"cn.networks", median("cn.networks"), "count"},
        {"cn.reduce_ms", median("cn.reduce_ms"), "ms"},
        {"opt.plan_ms", median("opt.plan_ms"), "ms"},
        {"engine.prepare_ms", median("engine.prepare_ms"), "ms"},
        {"engine.execute_ms", median("engine.execute_ms"), "ms"},
        {"exec.rows_scanned", median("exec.rows_scanned"), "count"},
        {"exec.probes", median("exec.probes"), "count"},
        {"exec.bloom_skip_ratio", ratio("exec.bloom_skip_ratio"), "ratio"},
        {"exec.partial_cache_hit_ratio", ratio("exec.partial_cache_hit_ratio"), "ratio"},
        {"opt.subplan_hit_ratio", ratio("opt.subplan_hit_ratio"), "ratio"},
        {"exec.results", median("exec.results"), "count"},
        {"storage.page_misses", median("storage.page_misses"), "count"},
        {"storage.page_hit_ratio", ratio("storage.page_hit_ratio"), "ratio"},
        {"storage.read_mb", median("storage.read_mb"), "MB"},
        {"storage.evictions", median("storage.evictions"), "count"},
        {"service.self_ms", median("service.self_ms"), "ms"},
        {"service.cache_hit_ratio", HitShare(before_, after_), "ratio"},
        {"service.coalesced", static_cast<double>(after_.coalesced - before_.coalesced),
         "count"},
        {"net.self_ms", median("net.self_ms"), "ms"},
        {"net.batches_per_query", median("net.batches_per_query"), "count"},
        {"net.bytes_per_query", median("net.bytes_per_query"), "bytes"},
        {"engine.global_k_mismatch", global_k_mismatch_, "count"},
        {"trace.overhead_share", median("trace.overhead_share"), "ratio"},
    };
  }
  for (const std::string& g : guard_failures_) {
    std::fprintf(stderr, "xkperf: mode guard failed: %s\n", g.c_str());
  }
  const xk::storage::StorageTier* tier = fixture_.xk->data().storage_tier.get();
  std::fprintf(stderr,
               "xkperf: %s seed=%llu requests=%zu failed=%zu wall=%.3fs "
               "hit_share=%.4f page_file_mb=%.1f\n",
               args_.workload_name.c_str(), static_cast<unsigned long long>(args_.seed),
               attempted_, failed_, wall_s_, HitShare(before_, after_),
               tier != nullptr ? static_cast<double>(tier->FileBytes()) / 1e6 : 0.0);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              failed_ == 0 && guard_failures_.empty() ? "true" : "false", attempted_,
              failed_);
  for (size_t i = 0; i < metrics.size(); ++i) {
    // A percentile that lands on a failed request is infinitely slow: null.
    char value[32] = "null";
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Bench::Run() {
  const int64_t t0 = NowNs();
  SetUpRepeatedly();
  stream_ = std::make_unique<Stream>(args_.workload, *fixture_.db, args_.seed);
  StartServing();
  const int64_t t1 = NowNs();
  TimedPhase();
  const int64_t t2 = NowNs();
  Verify();
  const int64_t t3 = NowNs();
  if (args_.trace) {
    Replay();
    CountGlobalKMismatch();
  }
  CheckModeGuard();
  std::fprintf(stderr, "xkperf: phases setup=%.1fs timed=%.1fs verify=%.1fs trace=%.1fs\n",
               Seconds(t1 - t0), Seconds(t2 - t1), Seconds(t3 - t2), Seconds(NowNs() - t3));
  if (server_ != nullptr) server_->Stop();
  clients_.clear();
  service_.reset();
  if (args_.trace && !args_.spans_path.empty() && !tracer_.Write(args_.spans_path)) {
    Die("cannot write spans to " + args_.spans_path);
  }
  Emit();
  stream_.reset();
  fixture_ = Fixture{};
  if (!tier_dir_.empty()) rmdir(tier_dir_.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(ParseArgs(argc, argv));
  return bench.Run();
}
