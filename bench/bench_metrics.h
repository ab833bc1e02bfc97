// Unified metrics emission for the reproduction benches — the bench-side
// entry point into the secmem observability layer (see ARCHITECTURE.md,
// "Observability").
//
// Every bench binary writes a `<tag>.metrics.json` StatRegistry export
// (git-ignored) next to its human-readable stdout report, so CI consumes
// one machine-readable format across the whole suite. The file lands
// next to the bench *binary* (i.e. in the build tree), never in whatever
// directory the bench happens to be run from — running benches from a
// source checkout must not litter the repo. The SECMEM_METRICS_JSON
// environment variable overrides the output path; an empty value
// suppresses the file.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/stats.h"

namespace secmem_bench {

/// `name` in the directory of the running bench binary (the build tree),
/// or in the current directory where the binary's path is unknown.
inline std::string binary_dir_path(const std::string& name) {
#if defined(__linux__)
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n > 0) {
    const std::string path(exe, static_cast<std::size_t>(n));
    const std::size_t slash = path.rfind('/');
    if (slash != std::string::npos) return path.substr(0, slash + 1) + name;
  }
#endif
  return name;  // fallback: current directory
}

inline std::string metrics_output_path(const std::string& tag) {
  if (const char* env = std::getenv("SECMEM_METRICS_JSON")) return env;
  return binary_dir_path(tag + ".metrics.json");
}

/// Scope guard owning the bench's StatRegistry: benches record run-level
/// scalars/counters into registry() (or merge_from() whole per-run sim
/// registries) and the destructor writes the JSON export.
class MetricsDump {
 public:
  explicit MetricsDump(const std::string& tag)
      : path_(metrics_output_path(tag)) {}
  ~MetricsDump() { write(); }

  MetricsDump(const MetricsDump&) = delete;
  MetricsDump& operator=(const MetricsDump&) = delete;

  secmem::StatRegistry& registry() noexcept { return registry_; }
  const std::string& path() const noexcept { return path_; }

  /// Write the export now (the destructor is a no-op afterwards).
  bool write() {
    if (written_ || path_.empty()) return true;
    written_ = true;
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "metrics: cannot write %s\n", path_.c_str());
      return false;
    }
    registry_.write_json(out);
    if (out.good())
      std::fprintf(stderr, "metrics: wrote %s\n", path_.c_str());
    return out.good();
  }

 private:
  std::string path_;
  secmem::StatRegistry registry_;
  bool written_ = false;
};

}  // namespace secmem_bench
