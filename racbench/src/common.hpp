// Shared plumbing of the racbench driver: wall/CPU clocks, the in-memory
// span log, the run digest, and the raw-record JSON writer.
//
// The driver measures the program from outside: it calls only public entry
// points and records its own spans around those calls. Nothing here
// reaches into the library's internals.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace racbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
  long voluntary_switches = 0;
  long involuntary_switches = 0;
  double total() const { return user_s + sys_s; }
};

/// getrusage for the whole process (RUSAGE_SELF) or the calling thread
/// (RUSAGE_THREAD).
CpuTimes cpu_times(int who);
/// Process peak resident set, KiB.
long peak_rss_kib();

/// One span: a benchmark-side call into a layer. Spans of one run share
/// the log's run id; `parent` is 0 for a root.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span log of one thread (a node thread keeps its own and the
/// coordinator adopts it after join). Written out only at the end.
class SpanLog {
 public:
  /// Opens a span under the innermost open one. Returns its id.
  std::uint64_t begin(std::string name);
  void end(std::uint64_t id);
  /// Id of the innermost open span (0 if none).
  std::uint64_t current() const {
    return open_.empty() ? 0 : open_.back();
  }
  /// Take `other`'s closed spans, re-rooting its roots under `parent` and
  /// renumbering ids so they stay unique in this log.
  void adopt(const SpanLog& other, std::uint64_t parent);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint64_t> open_;  // ids, innermost last
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name)
      : log_(log), id_(log.begin(std::move(name))) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

/// FNV-1a over a sequence of 64-bit words: the determinism digest.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// One count x unit-cost term of a layer's estimated share.
struct AttributionTerm {
  std::string metric;  // e.g. "overlay.est_share"
  std::string what;    // e.g. "first-seen receives"
  double count = 0;
  double unit_ns = 0;
};

/// Everything one workload run hands back to main() for the raw record.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t unsettled = 0;  // still in flight when the run stopped
  std::vector<Check> checks;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, std::string> unavailable;
  std::map<std::string, double> raw;  // diagnostics, not metrics
  std::vector<AttributionTerm> terms;
  double basis_ns = 0;           // traced run: host (DES) or CPU (live) ns
  double untraced_basis_ns = 0;  // the same quantity with tracing off
  std::string overhead_basis;    // "host_time" or "goodput"
  double traced_goodput = 0;
  double untraced_goodput = 0;
  SpanLog spans;

  bool all_checks_ok() const {
    for (const Check& c : checks) {
      if (!c.ok) return false;
    }
    return !checks.empty();
  }
  void check(std::string name, bool ok, std::string detail) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  /// Seconds-long variant: same code paths and checks, smaller horizons.
  bool smoke = false;
};

RunResult run_des_fig3(const Options& opt);
RunResult run_des_freerider(const Options& opt);
RunResult run_live_mesh(const Options& opt);

/// Median of a non-empty sample.
double median(std::vector<double> v);

/// Minimal JSON writer for the raw record.
class Json {
 public:
  explicit Json(std::FILE* out) : out_(out) {}
  void open_object() { sep(); std::fputc('{', out_); first_ = true; }
  void close_object() { std::fputc('}', out_); first_ = false; }
  void open_array() { sep(); std::fputc('[', out_); first_ = true; }
  void close_array() { std::fputc(']', out_); first_ = false; }
  void key(const std::string& k) {
    sep();
    str_raw(k);
    std::fputc(':', out_);
    first_ = true;
  }
  void value(double v);
  void value(std::uint64_t v) {
    sep();
    std::fprintf(out_, "%llu", static_cast<unsigned long long>(v));
  }
  void value(std::int64_t v) {
    sep();
    std::fprintf(out_, "%lld", static_cast<long long>(v));
  }
  void value(bool v) { sep(); std::fputs(v ? "true" : "false", out_); }
  void value(const std::string& s) { sep(); str_raw(s); }
  template <typename T>
  void field(const std::string& k, const T& v) {
    key(k);
    value(v);
  }

 private:
  void sep() {
    if (!first_) std::fputc(',', out_);
    first_ = false;
  }
  void str_raw(const std::string& s);

  std::FILE* out_;
  bool first_ = true;
};

}  // namespace racbench
