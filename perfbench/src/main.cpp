// perfbench — the repository benchmark binary.  Runs one workload and
// writes its measurements to <out>/results.json (and, with --trace 1,
// <out>/layers.json and <out>/trace.json).  perfbench/run.py builds this
// program, validates the JSON, prints the report and the one-line result.
//
//   perfbench --workload heat2d_ckpt --seed 1 --seconds 10 --trace 0
//             --out DIR --tmp-root DIR
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "harness.hpp"
#include "support/atomic_file.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Last-level cache size the host reports, in bytes (0 if unknown).
std::int64_t llc_bytes() {
  std::int64_t best = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string path =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/size";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) break;
    long long value = 0;
    char unit = 0;
    if (std::fscanf(f, "%lld%c", &value, &unit) >= 1) {
      const std::int64_t bytes =
          value * (unit == 'K' ? 1024 : unit == 'M' ? 1024 * 1024 : 1);
      if (bytes > best) best = bytes;
    }
    std::fclose(f);
  }
  if (best == 0) best = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return best > 0 ? best : 0;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename Map, typename Fmt>
std::string object(const Map& map, Fmt&& fmt) {
  std::string out = "{";
  for (const auto& [key, value] : map) {
    if (out.size() > 1) out += ", ";
    out += quoted(key) + ": " + fmt(value);
  }
  return out + "}";
}

std::string samples_json(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i != 0 ? ", " : "") + number(v[i]);
  }
  return out + "]";
}

bool write_text(const std::string& path, const std::string& text) {
  return pochoir::io::atomic_write_file(path, [&](std::FILE* f) {
           return std::fwrite(text.data(), 1, text.size(), f) == text.size();
         }).ok;
}

std::string results_json(const Args& args, const Measurement& m,
                         std::int64_t llc) {
  namespace pb = pochoir::bench;
  std::string meta = "{";
  meta += "\"threads\": " + std::to_string(args.threads);
  meta += ", \"llc_bytes\": " + std::to_string(llc);
  meta += ", \"working_set_bytes\": " + std::to_string(m.state_bytes);
  meta += ", \"seed\": " + std::to_string(args.seed);
  meta += ", \"seconds\": " + number(args.seconds);
  meta += ", \"compiler\": " + quoted(pb::compiler_id());
  meta += ", \"flags\": " + quoted(pb::build_flags());
  meta += ", \"git_sha\": " + quoted(pb::git_sha());
  meta += "}";
  std::string work = "{";
  work += "\"name\": " + quoted(m.workload);
  work += ", \"dims\": " + std::to_string(m.dims);
  work += ", \"grid\": " + quoted(m.grid);
  work += ", \"steps\": " + std::to_string(m.steps);
  work += ", \"space_points\": " + std::to_string(m.space_points);
  work += ", \"supervisor\": " + quoted(m.supervisor);
  work += ", \"rounds\": " + std::to_string(m.rounds);
  work += "}";
  std::string failures = "[";
  for (std::size_t i = 0; i < m.failures.size(); ++i) {
    failures += (i != 0 ? ", " : "") + quoted(m.failures[i]);
  }
  failures += "]";
  std::string out = "{\"schema\": \"pochoir-perfbench-v1\"";
  out += ", \"meta\": " + meta;
  out += ", \"workload\": " + work;
  out += ", \"trace\": " + std::string(args.trace ? "true" : "false");
  out += ", \"checks\": {\"attempted\": " + std::to_string(m.attempted) +
         ", \"failed\": " + std::to_string(m.failed) +
         ", \"reference_ok\": " + (m.reference_ok ? "true" : "false") +
         ", \"reference_note\": " + quoted(m.reference_note) +
         ", \"failures\": " + failures + "}";
  out += ", \"samples\": " + object(m.samples, samples_json);
  out += ", \"per_layer\": " + object(m.layers, number);
  out += ", \"info\": " + object(m.info, number);
  out += "}\n";
  return out;
}

std::string layers_json(const Args& args, const Measurement& m) {
  std::string out = "{\"schema\": \"pochoir-perfbench-layers-v1\"";
  out += ", \"workload\": " + quoted(m.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"metrics\": " + object(m.layers, number);
  out += ", \"info\": " + object(m.info, number);
  out += ", \"sessions\": " +
         object(m.sessions, [](const std::string& s) { return s; });
  out += "}\n";
  return out;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out DIR --tmp-root DIR\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  namespace fs = std::filesystem;
  Args args;
  std::string tmp_root;
  args.threads = std::min(4, usable_cpus());
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--out") args.out_dir = value;
    else if (key == "--tmp-root") tmp_root = value;
    else return usage(("unknown option " + key).c_str());
  }
  if (args.workload.empty() || tmp_root.empty()) {
    return usage("missing or invalid options");
  }

  // Checkpoints go to a fresh directory of this run, removed at exit.
  std::error_code ec;
  fs::create_directories(tmp_root, ec);
  fs::create_directories(args.out_dir, ec);
  std::string tmpl = (fs::path(tmp_root) / "ckpt-XXXXXX").string();
  if (mkdtemp(tmpl.data()) == nullptr) return usage("cannot create temp dir");
  args.ckpt_dir = tmpl;
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code e;
      fs::remove_all(path, e);
    }
  } cleanup{args.ckpt_dir};

  pochoir::telemetry::set_enabled(false);
  pochoir::rt::Scheduler::set_num_threads(args.threads);
  (void)pochoir::rt::Scheduler::instance();  // start the pool outside set-up

  Measurement m;
  m.workload = args.workload;
  try {
    if (args.workload == "heat2d_ckpt") run_heat2d(args, m);
    else if (args.workload == "wave3d") run_wave3d(args, m);
    else return usage(("unknown workload " + args.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const std::string out = args.out_dir + "/";
  bool ok = write_text(out + "results.json", results_json(args, m, llc_bytes()));
  if (args.trace) ok = write_text(out + "layers.json", layers_json(args, m)) && ok;
  return ok ? 0 : 1;
}
