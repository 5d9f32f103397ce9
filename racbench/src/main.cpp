// racbench: runs one benchmark workload and writes its raw record (checks,
// operation counts, metric values, attribution terms and spans) as one
// JSON object. racbench/run.py builds this program, runs it and turns the
// record into the benchmark's result line.
//
// Usage: racbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--smoke] --out <path>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

#ifndef RACBENCH_BUILD_TYPE
#define RACBENCH_BUILD_TYPE "unknown"
#endif
#ifndef RACBENCH_CXX_FLAGS
#define RACBENCH_CXX_FLAGS "unknown"
#endif
#ifndef RAC_TELEMETRY_ENABLED
#define RAC_TELEMETRY_ENABLED 0
#endif
#if defined(__clang__)
#define RACBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define RACBENCH_COMPILER "gcc " __VERSION__
#else
#define RACBENCH_COMPILER "unknown"
#endif

namespace racbench {

CpuTimes cpu_times(int who) {
  rusage ru{};
  getrusage(who, &ru);
  CpuTimes t;
  t.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  t.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  t.voluntary_switches = ru.ru_nvcsw;
  t.involuntary_switches = ru.ru_nivcsw;
  return t;
}

long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::uint64_t SpanLog::begin(std::string name) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = current();
  s.name = std::move(name);
  s.start_ns = wall_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanLog::end(std::uint64_t id) {
  spans_.at(id - 1).end_ns = wall_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanLog::adopt(const SpanLog& other, std::uint64_t parent) {
  const std::uint64_t offset = spans_.size();
  for (Span s : other.spans_) {
    s.id += offset;
    s.parent = s.parent == 0 ? parent : s.parent + offset;
    spans_.push_back(std::move(s));
  }
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Json::value(double v) {
  sep();
  if (std::isfinite(v)) {
    std::fprintf(out_, "%.17g", v);
  } else {
    std::fputs("null", out_);
  }
}

void Json::str_raw(const std::string& s) {
  std::fputc('"', out_);
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      std::fputc('\\', out_);
      std::fputc(ch, out_);
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      std::fprintf(out_, "\\u%04x", ch);
    } else {
      std::fputc(ch, out_);
    }
  }
  std::fputc('"', out_);
}

namespace {

void write_record(std::FILE* f, const Options& opt, const RunResult& r) {
  Json j(f);
  j.open_object();
  j.field("workload", opt.workload);
  j.field("seed", static_cast<std::uint64_t>(opt.seed));
  j.field("trace", opt.trace);
  j.field("smoke", opt.smoke);
  j.key("build");
  j.open_object();
  j.field("compiler", std::string(RACBENCH_COMPILER));
  j.field("build_type", std::string(RACBENCH_BUILD_TYPE));
  j.field("cxx_flags", std::string(RACBENCH_CXX_FLAGS));
  j.field("rac_telemetry", static_cast<bool>(RAC_TELEMETRY_ENABLED));
  j.close_object();
  j.field("correct", r.all_checks_ok());
  j.field("attempted", r.attempted);
  j.field("failed", r.failed);
  j.field("unsettled", r.unsettled);
  j.key("checks");
  j.open_array();
  for (const Check& c : r.checks) {
    j.open_object();
    j.field("name", c.name);
    j.field("ok", c.ok);
    j.field("detail", c.detail);
    j.close_object();
  }
  j.close_array();
  auto numbers = [&](const char* key, const std::map<std::string, double>& m) {
    j.key(key);
    j.open_object();
    for (const auto& [k, v] : m) j.field(k, v);
    j.close_object();
  };
  numbers("end_to_end", r.end_to_end);
  numbers("per_layer", r.per_layer);
  numbers("raw", r.raw);
  j.key("unavailable");
  j.open_object();
  for (const auto& [k, v] : r.unavailable) j.field(k, v);
  j.close_object();
  j.key("attribution");
  j.open_object();
  j.field("basis_ns", r.basis_ns);
  j.field("untraced_basis_ns", r.untraced_basis_ns);
  j.field("overhead_basis", r.overhead_basis);
  j.field("traced_goodput", r.traced_goodput);
  j.field("untraced_goodput", r.untraced_goodput);
  j.key("terms");
  j.open_array();
  for (const AttributionTerm& t : r.terms) {
    j.open_object();
    j.field("metric", t.metric);
    j.field("what", t.what);
    j.field("count", t.count);
    j.field("unit_ns", t.unit_ns);
    j.close_object();
  }
  j.close_array();
  j.close_object();
  j.key("spans");
  j.open_array();
  for (const Span& s : r.spans.spans()) {
    j.open_object();
    j.field("id", s.id);
    j.field("parent", s.parent);
    j.field("name", s.name);
    j.field("start_ns", static_cast<std::int64_t>(s.start_ns));
    j.field("end_ns", static_cast<std::int64_t>(s.end_ns));
    j.close_object();
  }
  j.close_array();
  j.close_object();
  std::fputc('\n', f);
}

int usage() {
  std::fprintf(stderr,
               "usage: racbench --workload <des_fig3_100|des_freerider_200|"
               "live_mesh_3> --seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] --out <path>\n");
  return 2;
}

}  // namespace
}  // namespace racbench

int main(int argc, char** argv) {
  using namespace racbench;
  Options opt;
  std::string out_path;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const bool has_value = i + 1 < argc;
      if (a == "--workload" && has_value) {
        opt.workload = argv[++i];
      } else if (a == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        opt.trace = std::string(argv[++i]) == "1";
      } else if (a == "--smoke") {
        opt.smoke = true;
      } else if (a == "--out" && has_value) {
        out_path = argv[++i];
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();  // a number that does not parse
  }
  if (out_path.empty() || opt.seconds <= 0) return usage();

  RunResult result;
  try {
    if (opt.workload == "des_fig3_100") {
      result = run_des_fig3(opt);
    } else if (opt.workload == "des_freerider_200") {
      result = run_des_freerider(opt);
    } else if (opt.workload == "live_mesh_3") {
      result = run_live_mesh(opt);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "racbench: %s\n", e.what());
    return 1;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "racbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  write_record(f, opt, result);
  return std::fclose(f) == 0 ? 0 : 1;
}
