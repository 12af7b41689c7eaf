// perfbench_driver — one benchmark run of a long-lived longitudinal study.
//
// It sets a workload up several times (the last set-up is kept), runs the
// fixed warm-up days, then a fixed number of steady days derived from the
// requested seconds.  Every day is checked, untimed:
//
//   * ground truth — apex HTTPS presence in the snapshot equals the
//     simulated Internet's https_written && ns_present for every listed
//     domain (the mixed_provider cohort excepted: its answer depends on
//     which of its two providers' servers is picked);
//   * delta observers — the nine delta-aware observers equal their
//     force_full twins, and the adoption numerators equal a from-scratch
//     recompute;
//   * cross-endpoint digests (socket workload) — each day's snapshot
//     digest equals the digest an in-process study of the same world
//     computes for that day.
//
// The driver only records: it prints one JSON object per line on stdout
// (set-ups, days, end-of-run totals) with raw cumulative counters, clocks
// and /proc lines.  perfbench/run.py turns them into metrics.  With
// --trace 1 it also keeps spans (set-up phases, every endpoint call, every
// observer call) in memory and writes them as JSONL at the end.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/delta_observers.h"
#include "analysis/iphints_analysis.h"
#include "analysis/ns_analysis.h"
#include "analysis/params_analysis.h"
#include "ecosystem/internet.h"
#include "resolver/endpoint.h"
#include "scanner/digest.h"
#include "scanner/study.h"

namespace {

using namespace httpsrr;

// ---- Workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t list_size;
  bool prewarm;
  bool capped;  // zone/response caps at the 1M run's ratio to list size
  std::size_t shards;
  bool socket;
  // Steady-day wall time on the reference machine (README).  A run scans
  // round(seconds / nominal_day_s) steady days, so every run of a seed does
  // the same work however fast the program is.
  double nominal_day_s;
  // Set-ups per run; setup_s is their median.  Cheaper set-ups repeat more
  // so that every workload spends about two seconds on them.
  int setup_repeats;
};

constexpr Workload kWorkloads[] = {
    {"study-prewarm-k1", 20000, true, false, 1, false, 2.3, 7},
    {"study-capped-k4", 40000, false, true, 4, false, 2.6, 15},
    {"socket-k2", 20000, true, false, 2, true, 2.8, 7},
    // In-process twin of socket-k2: what the same world costs at K=2
    // without the process boundary.
    {"study-prewarm-k2", 20000, true, false, 2, false, 1.9, 7},
};

// Day 1 is cold (no advance, no GC) and day 2 skips compaction because
// every interner entry is still inside the retention window; day 3 is the
// first day that runs every phase.
constexpr std::size_t kWarmupDays = 2;
constexpr std::size_t kMinSteadyDays = 5;

ecosystem::EcosystemConfig world_config(const Workload& w, std::uint64_t seed) {
  ecosystem::EcosystemConfig config;
  config.list_size = w.list_size;
  config.universe_size = w.list_size * 3 / 2;  // httpsrr_serve's ratio
  config.seed = seed;
  config.prewarm_zones = w.prewarm;
  if (w.capped) {
    // The million-domain run keeps 65536 zones and 262144 responses.
    config.zone_cache_limit = w.list_size * 65536 / 1000000;
    config.response_cache_limit = w.list_size * 262144 / 1000000;
  }
  return config;
}

// ---- Clocks, /proc ----------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// One flat JSON object, built field by field.
class JsonLine {
 public:
  JsonLine& num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return raw(key, buf);
  }
  JsonLine& count(const char* key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& str(const char* key, const std::string& value) {
    std::string quoted(1, '"');
    quoted += json_escape(value);
    quoted += '"';
    return raw(key, quoted);
  }
  JsonLine& raw(const char* key, const std::string& value) {
    body_ += body_.empty() ? "{" : ", ";
    body_ += "\"";
    body_ += key;
    body_ += "\": ";
    body_ += value;
    return *this;
  }
  [[nodiscard]] std::string text() const { return body_ + "}"; }

 private:
  std::string body_;
};

void emit(const JsonLine& line) {
  std::printf("%s\n", line.text().c_str());
  std::fflush(stdout);
}

// ---- The serve process ------------------------------------------------------

// A child httpsrr_serve --mode recursive over the same world.  The child
// gets SIGTERM if this process dies, so no run leaves it behind.
class ServeProcess {
 public:
  ServeProcess(const std::string& binary, const Workload& w, std::uint64_t seed) {
    int out_pipe[2];
    int err_pipe[2];
    if (pipe(out_pipe) != 0 || pipe(err_pipe) != 0) fail("pipe");
    const std::string scale = std::to_string(w.list_size);
    const std::string seed_text = std::to_string(seed);
    pid_ = fork();
    if (pid_ < 0) fail("fork");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      dup2(out_pipe[1], STDOUT_FILENO);
      dup2(err_pipe[1], STDERR_FILENO);
      close(out_pipe[0]);
      close(err_pipe[0]);
      execl(binary.c_str(), binary.c_str(), "--mode", "recursive", "--scale",
            scale.c_str(), "--seed", seed_text.c_str(), "--date", "2023-05-08",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(out_pipe[1]);
    close(err_pipe[1]);
    out_fd_ = out_pipe[0];
    err_fd_ = err_pipe[0];
  }
  ~ServeProcess() { (void)stop(); }
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  // Blocks until the child prints "listening on HOST:PORT".
  net::SocketEndpoint wait_listening() {
    std::string line;
    char c = 0;
    while (read(out_fd_, &c, 1) == 1) {
      if (c != '\n') {
        line += c;
        continue;
      }
      const std::string prefix = "listening on ";
      if (line.rfind(prefix, 0) == 0) {
        if (auto ep = net::SocketEndpoint::parse(line.substr(prefix.size()))) {
          return *ep;
        }
      }
      line.clear();
    }
    fail("serve process exited before listening");
  }

  [[nodiscard]] std::string stat_line() const {
    std::string text = read_file("/proc/" + std::to_string(pid_) + "/stat");
    while (!text.empty() && text.back() == '\n') text.pop_back();
    return text;
  }

  [[nodiscard]] std::string vm_hwm_line() const {
    std::istringstream status(
        read_file("/proc/" + std::to_string(pid_) + "/status"));
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return line;
    }
    return "";
  }

  // SIGTERM, then collect the child's stderr (its shutdown stats line) and
  // reap it.  Returns the stderr text.
  std::string stop() {
    if (pid_ <= 0) return "";
    kill(pid_, SIGTERM);
    std::string err;
    char buf[4096];
    ssize_t n = 0;
    while ((n = read(err_fd_, buf, sizeof buf)) > 0) {
      err.append(buf, static_cast<std::size_t>(n));
    }
    int status = 0;
    waitpid(pid_, &status, 0);
    close(out_fd_);
    close(err_fd_);
    pid_ = -1;
    return err;
  }

 private:
  [[noreturn]] static void fail(const char* what) {
    std::fprintf(stderr, "perfbench: %s\n", what);
    std::exit(1);
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int err_fd_ = -1;
};

// ---- Tracing ----------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  long parent = -1;  // index of the causing span, -1 = root
  long shard = -1;
  std::size_t items = 0;
};

// Spans are kept in memory and written as JSONL when the run ends.  Shard
// workers record into their own vectors; the coordinator merges them after
// the day's join.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  long add(Span span) {
    spans_.push_back(std::move(span));
    return static_cast<long>(spans_.size()) - 1;
  }
  void adopt(std::vector<Span>& shard_spans, long parent) {
    for (auto& span : shard_spans) {
      span.parent = parent;
      spans_.push_back(std::move(span));
    }
    shard_spans.clear();
  }
  [[nodiscard]] bool write(const std::string& path, double origin) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"parent\": %ld, \"name\": \"%s\", "
                   "\"start_s\": %.6f, \"end_s\": %.6f, \"shard\": %ld, "
                   "\"items\": %zu}\n",
                   i, s.parent, json_escape(s.name).c_str(), s.start - origin,
                   s.end - origin, s.shard, s.items);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

class MeteredEndpoint;

// What the shard endpoints share: the list of them (owned by the Study) and
// the day's scan-phase state.  The Study's progress hook fires with
// done == total once every shard has finished its scan blocks; endpoint
// calls after that belong to the name-server phase.
struct Meters {
  std::vector<MeteredEndpoint*> endpoints;
  std::atomic<bool> scan_done{false};
  std::atomic<bool> scan_started{false};
  double scan_cpu_start = 0;  // process CPU at the day's first endpoint call
  double scan_cpu_end = 0;    // process CPU when the last scan block ended

  void new_day() {
    scan_done.store(false);
    scan_started.store(false);
    scan_cpu_start = scan_cpu_end = 0;
  }
};

// Endpoint decorator: counts every request and every SERVFAIL answer
// (transport timeouts and malformed replies surface as SERVFAIL too), and
// with tracing on times each call.
class MeteredEndpoint final : public resolver::Endpoint {
 public:
  MeteredEndpoint(std::unique_ptr<resolver::Endpoint> inner, std::size_t shard,
                  bool tracing, Meters& meters)
      : inner_(std::move(inner)), shard_(shard), tracing_(tracing),
        meters_(meters) {}

  std::vector<resolver::ResolvedAnswer> run(
      std::span<const resolver::QueryEngine::Request> requests) override {
    double t0 = 0;
    bool scan_phase = false;
    if (tracing_) {
      scan_phase = !meters_.scan_done.load();
      if (scan_phase && !meters_.scan_started.exchange(true)) {
        meters_.scan_cpu_start = process_cpu_s();
      }
      t0 = now_s();
    }
    auto answers = inner_->run(requests);
    if (tracing_) {
      const double t1 = now_s();
      (scan_phase ? busy_scan : busy_ns) += t1 - t0;
      spans.push_back(Span{scan_phase ? "endpoint.run.scan" : "endpoint.run.ns",
                            t0, t1, -1, static_cast<long>(shard_),
                            requests.size()});
    }
    sent += requests.size();
    for (const auto& answer : answers) {
      if (answer.rcode == dns::Rcode::SERVFAIL) ++servfailed;
    }
    return answers;
  }
  void set_virtual_time(std::uint64_t unix_seconds) override {
    inner_->set_virtual_time(unix_seconds);
  }
  std::uint64_t collect_expired() override { return inner_->collect_expired(); }
  [[nodiscard]] resolver::ResolverStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::uint64_t fallbacks() const override {
    return inner_->fallbacks();
  }

  [[nodiscard]] const resolver::SocketEndpoint* socket() const {
    return dynamic_cast<const resolver::SocketEndpoint*>(inner_.get());
  }

  std::uint64_t sent = 0;        // cumulative requests
  std::uint64_t servfailed = 0;  // cumulative SERVFAIL answers
  double busy_scan = 0;  // cumulative seconds inside run(), scan phase
  double busy_ns = 0;    // cumulative seconds inside run(), NS phase
  std::vector<Span> spans;

 private:
  std::unique_ptr<resolver::Endpoint> inner_;
  std::size_t shard_;
  bool tracing_;
  Meters& meters_;
};

// Observer decorator: times each on_day call (tracing on only).
class TimedObserver final : public scanner::DailyObserver {
 public:
  TimedObserver(scanner::DailyObserver& inner, std::string name)
      : inner_(inner), name_(std::move(name)) {}
  void on_day(const scanner::DailySnapshot& snapshot,
              const ecosystem::Internet& net) override {
    const double t0 = now_s();
    inner_.on_day(snapshot, net);
    spans.push_back(Span{"observer." + name_, t0, now_s(), -1, -1,
                         snapshot.size()});
  }
  std::vector<Span> spans;

 private:
  scanner::DailyObserver& inner_;
  std::string name_;
};

// ---- Analyses ---------------------------------------------------------------

// The nine delta-aware observers, incremental or force_full.
struct AnalysisSet {
  analysis::DeltaAdoptionCounter adoption;
  analysis::NsCategoryAnalysis ns_category;
  analysis::ProviderAnalysis providers;
  analysis::IntermittentUse intermittent;
  analysis::CfConfigClassifier cf_config;
  analysis::ProviderParamProfile profile;
  analysis::ParamAudit audit;
  analysis::AlpnDistribution alpn;
  analysis::IpHintConsistency hints;

  AnalysisSet(net::SimTime from, net::SimTime to, bool force_full)
      : ns_category(from, to, force_full),
        providers(from, to, force_full),
        intermittent(from, to, force_full),
        cf_config(force_full),
        profile("godaddy", force_full),
        audit(force_full),
        alpn(force_full),
        hints(force_full) {}

  [[nodiscard]] std::vector<std::pair<const char*, scanner::DailyObserver*>>
  members() {
    return {{"adoption", &adoption},   {"ns_category", &ns_category},
            {"providers", &providers}, {"intermittent", &intermittent},
            {"cf_config", &cf_config}, {"profile", &profile},
            {"audit", &audit},         {"alpn", &alpn},
            {"hints", &hints}};
  }

  [[nodiscard]] std::uint64_t rows_touched() const {
    return adoption.rows_touched() + ns_category.rows_touched() +
           providers.rows_touched() + intermittent.rows_touched() +
           cf_config.rows_touched() + profile.rows_touched() +
           audit.rows_touched() + alpn.rows_touched() + hints.rows_touched();
  }
};

// Everything the analyses report, delta twin against force_full twin.
bool sets_match(const AnalysisSet& a, const AnalysisSet& b, net::SimTime from,
                net::SimTime to) {
  auto shares_eq = [](const analysis::NsCategoryAnalysis::Shares& x,
                      const analysis::NsCategoryAnalysis::Shares& y) {
    return x.full_mean == y.full_mean && x.full_std == y.full_std &&
           x.partial_mean == y.partial_mean && x.partial_std == y.partial_std &&
           x.none_mean == y.none_mean && x.none_std == y.none_std;
  };
  const auto ra = a.intermittent.result(), rb = b.intermittent.result();
  const auto pa = a.profile.profile(), pb = b.profile.profile();
  const auto aa = a.audit.result(), ab = b.audit.result();
  bool ok =
      shares_eq(a.ns_category.dynamic_shares(), b.ns_category.dynamic_shares()) &&
      shares_eq(a.ns_category.overlapping_shares(),
                b.ns_category.overlapping_shares()) &&
      a.providers.daily_provider_count().points() ==
          b.providers.daily_provider_count().points() &&
      a.providers.daily_domain_count().points() ==
          b.providers.daily_domain_count().points() &&
      a.providers.top_dynamic(10) == b.providers.top_dynamic(10) &&
      a.providers.top_overlapping(10) == b.providers.top_overlapping(10) &&
      ra.intermittent_domains == rb.intermittent_domains &&
      ra.same_ns_throughout == rb.same_ns_throughout &&
      ra.changed_ns == rb.changed_ns &&
      ra.lost_https_after_ns_change == rb.lost_https_after_ns_change &&
      a.cf_config.dynamic_series().points() ==
          b.cf_config.dynamic_series().points() &&
      a.cf_config.default_pct_overlapping() ==
          b.cf_config.default_pct_overlapping() &&
      pa.domains == pb.domains && pa.service_mode == pb.service_mode &&
      pa.with_alpn == pb.with_alpn && pa.with_ipv4hint == pb.with_ipv4hint &&
      aa.service_mode_domains == ab.service_mode_domains &&
      aa.service_without_params == ab.service_without_params &&
      aa.priority_one == ab.priority_one &&
      a.alpn.non_cf_no_alpn_pct() == b.alpn.non_cf_no_alpn_pct() &&
      a.hints.hint_utilisation_apex().points() ==
          b.hints.hint_utilisation_apex().points() &&
      a.hints.match_ratio_apex().points() ==
          b.hints.match_ratio_apex().points() &&
      a.hints.mismatch_duration_histogram() ==
          b.hints.mismatch_duration_histogram();
  for (const char* protocol : {"h2", "h3", "h3-29"}) {
    ok = ok &&
         a.alpn.protocol_pct(protocol, from, to) ==
             b.alpn.protocol_pct(protocol, from, to) &&
         a.alpn.non_cf_protocol_pct(protocol) ==
             b.alpn.non_cf_protocol_pct(protocol);
  }
  return ok;
}

// Listed domains whose apex HTTPS presence disagrees with the ground truth,
// outside the mixed_provider cohort.
std::size_t ground_truth_mismatches(const scanner::DailySnapshot& snapshot,
                                    const ecosystem::Internet& net,
                                    std::size_t& mixed_provider_mismatches) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    const auto& d = net.domain(snapshot.list[i]);
    const bool truth = d.https_written && d.ns_present;
    if (snapshot.apex.view(i).has_https() == truth) continue;
    if (d.quirk == ecosystem::DomainState::Quirk::mixed_provider) {
      ++mixed_provider_mismatches;
    } else {
      ++bad;
      if (bad <= 5) {
        std::fprintf(stderr, "perfbench: ground truth mismatch %s (truth %d)\n",
                     d.apex.to_string().c_str(), truth ? 1 : 0);
      }
    }
  }
  return bad;
}

// ---- One run ----------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string serve_binary;
  std::string trace_path;
};

// A set-up: the world, its Study, and (socket workload) the serve process.
struct Setup {
  std::unique_ptr<Meters> meters = std::make_unique<Meters>();
  std::unique_ptr<ServeProcess> serve;
  std::unique_ptr<ecosystem::Internet> net;
  std::unique_ptr<scanner::Study> study;
};

Setup set_up(const Args& args, Tracer& tracer, int rep) {
  const Workload& w = *args.workload;
  Setup s;
  const double t0 = now_s();
  // The serve process builds its world while this process builds its own.
  if (w.socket) {
    s.serve = std::make_unique<ServeProcess>(args.serve_binary, w, args.seed);
  }
  s.net = std::make_unique<ecosystem::Internet>(world_config(w, args.seed));
  const double t1 = now_s();

  scanner::StudyOptions options;
  options.shards = w.shards;
  std::optional<net::SocketEndpoint> server;
  if (w.socket) server = s.serve->wait_listening();
  const double t2 = now_s();
  ecosystem::Internet* world = s.net.get();
  const bool tracing = args.trace;
  Meters* meters = s.meters.get();
  options.endpoint_factory =
      [world, server, tracing, meters](
          std::size_t shard, const resolver::ResolverOptions& primary,
          const resolver::ResolverOptions& backup)
      -> std::unique_ptr<resolver::Endpoint> {
    std::unique_ptr<resolver::Endpoint> inner;
    if (server) {
      resolver::SocketEndpointOptions socket_options;
      socket_options.server = *server;
      socket_options.shard = static_cast<std::uint16_t>(shard);
      auto endpoint = std::make_unique<resolver::SocketEndpoint>(socket_options);
      if (!endpoint->ok()) {
        std::fprintf(stderr, "perfbench: cannot open a socket to %s\n",
                     server->to_string().c_str());
        std::exit(1);
      }
      inner = std::move(endpoint);
    } else {
      inner = std::make_unique<resolver::EngineEndpoint>(
          world->make_resolver(primary), world->make_resolver(backup));
    }
    auto metered =
        std::make_unique<MeteredEndpoint>(std::move(inner), shard, tracing, *meters);
    meters->endpoints.push_back(metered.get());
    return metered;
  };
  if (tracing) {
    options.progress = [meters](std::size_t done, std::size_t total) {
      if (done == total) {
        meters->scan_cpu_end = process_cpu_s();
        meters->scan_done.store(true);
      }
    };
  }
  s.study = std::make_unique<scanner::Study>(*s.net, options);
  const double t3 = now_s();

  emit(JsonLine()
           .str("type", "setup")
           .count("rep", static_cast<std::uint64_t>(rep))
           .num("build_s", t1 - t0)
           .num("serve_wait_s", t2 - t1)
           .num("study_s", t3 - t2)
           .num("total_s", t3 - t0));
  if (tracer.enabled()) {
    const long root = tracer.add(Span{"setup", t0, t3, -1, -1, 0});
    tracer.add(Span{"ecosystem.build", t0, t1, root, -1, 0});
    if (w.socket) tracer.add(Span{"serve.wait_listening", t1, t2, root, -1, 0});
    tracer.add(Span{"scanner.study_construct", t2, t3, root, -1, 0});
  }
  return s;
}

// The Study goes before the world it scans, the world before the serve
// process.
void tear_down(Setup& s) {
  s.study.reset();
  s.meters->endpoints.clear();
  s.net.reset();
  s.serve.reset();
}

// In-process digests of the same world and days, for the socket workload's
// cross-endpoint check.  Digests are invariant across shard counts, so the
// reference runs K=4 to take less time.
std::vector<std::string> reference_digests(const Args& args, std::size_t days) {
  ecosystem::Internet net(world_config(*args.workload, args.seed));
  scanner::StudyOptions options;
  options.shards = 4;
  scanner::Study study(net, options);
  std::vector<std::string> digests;
  const auto from = net.config().start;
  for (std::size_t d = 0; d < days; ++d) {
    auto snapshot = study.run_day(from + net::Duration::days(static_cast<std::int64_t>(d)));
    digests.push_back(scanner::snapshot_digest(snapshot, study.total_queries()));
  }
  return digests;
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  Tracer tracer(args.trace);
  const double origin = now_s();

  Setup s;
  for (int rep = 0; rep < w.setup_repeats; ++rep) {
    tear_down(s);  // the previous set-up is gone before the next starts
    s = set_up(args, tracer, rep);
  }
  scanner::Study& study = *s.study;
  ecosystem::Internet& net = *s.net;

  const auto from = net.config().start;
  const auto window_to = from + net::Duration::days(400);
  AnalysisSet delta(from, window_to, /*force_full=*/false);
  AnalysisSet full(from, window_to, /*force_full=*/true);
  std::vector<std::unique_ptr<TimedObserver>> timed;
  for (auto [name, observer] : delta.members()) {
    if (args.trace) {
      timed.push_back(std::make_unique<TimedObserver>(*observer, name));
      study.add_observer(timed.back().get());
    } else {
      study.add_observer(observer);
    }
  }

  const std::size_t steady_days = std::max<std::size_t>(
      kMinSteadyDays, static_cast<std::size_t>(std::lround(args.seconds / w.nominal_day_s)));
  std::vector<std::string> digests;
  double measured = 0;
  bool ok = true;
  std::size_t mixed_total = 0;
  for (std::size_t d = 0; d < kWarmupDays + steady_days; ++d) {
    const bool steady = d >= kWarmupDays;

    const std::string serve_before = s.serve ? s.serve->stat_line() : "";
    s.meters->new_day();
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    auto snapshot = study.run_day(from + net::Duration::days(static_cast<std::int64_t>(d)));
    const double t1 = now_s();
    const double cpu1 = process_cpu_s();
    const std::string serve_after = s.serve ? s.serve->stat_line() : "";
    if (steady) measured += t1 - t0;

    // ---- untimed checks ----
    std::size_t mixed = 0;
    const std::size_t truth_bad = ground_truth_mismatches(snapshot, net, mixed);
    mixed_total += mixed;
    for (auto [name, observer] : full.members()) observer->on_day(snapshot, net);
    const bool adoption_ok =
        delta.adoption.counts() ==
        analysis::DeltaAdoptionCounter::recompute(snapshot);
    const bool delta_ok = adoption_ok && sets_match(delta, full, from, window_to);
    if (truth_bad != 0 || !delta_ok) {
      std::fprintf(stderr,
                   "perfbench: day %zu failed: %zu ground-truth mismatches, "
                   "delta observers %s\n",
                   d + 1, truth_bad, delta_ok ? "ok" : "MISMATCH");
      ok = false;
    }
    if (w.socket) {
      digests.push_back(scanner::snapshot_digest(snapshot, study.total_queries()));
    }

    // ---- the day's record ----
    const auto& t = study.day_timing();
    const auto& gc = study.gc_stats();
    const auto rs = study.resolver_stats();
    const auto mem = snapshot.memory_stats();
    std::uint64_t requests = 0, servfails = 0;
    std::string busy_scan = "[", busy_ns = "[";
    net::SocketStats sock{};
    for (std::size_t k = 0; k < s.meters->endpoints.size(); ++k) {
      const MeteredEndpoint& e = *s.meters->endpoints[k];
      requests += e.sent;
      servfails += e.servfailed;
      busy_scan += k ? ", " : "";
      busy_scan += std::to_string(e.busy_scan);
      busy_ns += k ? ", " : "";
      busy_ns += std::to_string(e.busy_ns);
      if (const auto* socket = e.socket()) {
        const auto& st = socket->socket_stats();
        sock.udp_queries += st.udp_queries;
        sock.tcp_queries += st.tcp_queries;
        sock.retransmits += st.retransmits;
        sock.timeouts += st.timeouts;
        sock.tcp_fallbacks += st.tcp_fallbacks;
        sock.stray_replies += st.stray_replies;
        sock.mismatched_replies += st.mismatched_replies;
      }
    }
    busy_scan += "]";
    busy_ns += "]";
    JsonLine line;
    line.str("type", "day")
        .count("day", d + 1)
        .raw("steady", steady ? "true" : "false")
        .num("wall_s", t1 - t0)
        .num("cpu_start_s", cpu0)
        .num("cpu_end_s", cpu1)
        .str("serve_stat_start", serve_before)
        .str("serve_stat_end", serve_after)
        .count("listed", snapshot.size())
        .count("requests", requests)
        .count("servfails", servfails)
        .count("total_queries", study.total_queries())
        .count("truth_mismatches", truth_bad)
        .count("mixed_provider_mismatches", mixed)
        .raw("delta_ok", delta_ok ? "true" : "false")
        .num("advance_s", t.advance)
        .num("sweep_s", t.sweep)
        .num("compact_s", t.compact)
        .num("scan_s", t.scan)
        .num("ns_s", t.ns)
        .num("churn_s", t.churn)
        .num("observers_s", t.observers)
        .count("rs_queries", rs.queries)
        .count("rs_cache_hits", rs.cache_hits)
        .count("rs_cache_misses", rs.cache_misses)
        .count("rs_upstream", rs.upstream_queries)
        .count("rs_validations", rs.validations)
        .count("rs_servfails", rs.servfails)
        .count("rs_auth_cache_hits", rs.auth_cache_hits)
        .count("rs_sig_cache_hits", rs.sig_cache_hits)
        .count("rs_bytes_encoded", rs.bytes_encoded)
        .count("gc_interner_entries", gc.interner_entries)
        .count("gc_live_refs", gc.live_refs)
        .count("gc_compaction_freed", gc.compaction_freed)
        .count("gc_zone_swept", gc.zone_swept)
        .count("gc_resolver_swept", gc.resolver_swept)
        .num("intern_hit_rate", mem.intern_hit_rate)
        .num("bytes_per_domain", mem.bytes_per_domain)
        .count("rows_touched", delta.rows_touched())
        .count("sock_udp_queries", sock.udp_queries)
        .count("sock_retransmits", sock.retransmits)
        .count("sock_timeouts", sock.timeouts)
        .count("sock_tcp_fallbacks", sock.tcp_fallbacks)
        .count("sock_stray_replies", sock.stray_replies)
        .count("sock_mismatched_replies", sock.mismatched_replies);
    std::uint64_t fallbacks = 0;
    for (const MeteredEndpoint* e : s.meters->endpoints) fallbacks += e->fallbacks();
    line.count("fallbacks", fallbacks);
    if (args.trace) {
      line.raw("busy_scan_s", busy_scan)
          .raw("busy_ns_s", busy_ns)
          .num("scan_cpu_s", s.meters->scan_cpu_end - s.meters->scan_cpu_start);
      const long root = tracer.add(Span{"day", t0, t1, -1, -1, snapshot.size()});
      for (MeteredEndpoint* e : s.meters->endpoints) tracer.adopt(e->spans, root);
      for (auto& observer : timed) tracer.adopt(observer->spans, root);
    }
    emit(line);
  }

  JsonLine end;
  end.str("type", "end")
      .count("client_peak_rss_kib", static_cast<std::uint64_t>(peak_rss_kib()))
      .num("measured_s", measured)
      .count("mixed_provider_mismatches", mixed_total);
  if (s.serve) {
    end.str("serve_vm_hwm", s.serve->vm_hwm_line());
    end.str("serve_stderr", s.serve->stop());
    const auto reference = reference_digests(args, digests.size());
    std::size_t mismatched = 0;
    for (std::size_t d = 0; d < digests.size(); ++d) {
      if (digests[d] != reference[d]) {
        std::fprintf(stderr, "perfbench: day %zu digest %s != in-process %s\n",
                     d + 1, digests[d].c_str(), reference[d].c_str());
        ++mismatched;
      }
    }
    end.count("digest_days", digests.size()).count("digest_mismatches", mismatched);
    if (mismatched != 0) ok = false;
  }
  end.raw("checks_ok", ok ? "true" : "false");
  if (args.trace && !args.trace_path.empty() &&
      !tracer.write(args.trace_path, origin)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_path.c_str());
    return 2;
  }
  emit(end);
  return ok ? 0 : 1;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve PATH [--trace-out PATH]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage();
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds <= 0) usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage();
      args.trace = value == "1";
    } else if (arg == "--serve") {
      args.serve_binary = value;
    } else if (arg == "--trace-out") {
      args.trace_path = value;
    } else {
      usage();
    }
  }
  if (args.workload == nullptr) usage();
  if (args.workload->socket && args.serve_binary.empty()) usage();
  return run(args);
}
