// Spans for the traced run. The benchmark records them around its own
// calls into each layer's public functions; the library is not
// instrumented. Spans stay in memory and are written out when the run
// ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the log was created
  double end = 0.0;
  int parent = -1;  // index into the log, -1 for a root
  std::uint64_t solve = 0;
};

class SpanLog {
 public:
  /// Opens a span and returns its index.
  int open(std::string name, int parent, std::uint64_t solve);
  void close(int span);
  [[nodiscard]] double seconds(int span) const;
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Writes one JSON object per span, one a line. Throws std::runtime_error
  /// when the file cannot be written.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] double now() const;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

/// One solve replayed as the sequence of public calls core::solve_on makes:
/// parse_scenario_text, make_framework, ra::count_feasible,
/// Framework::run_stage_one with the heuristic solve_on would pick,
/// run_stage_two per case, robustness_report, make_scenario_report + dump.
struct MirroredSolve {
  SolveRun run;
  /// Seconds per layer span name, summed over repeated spans (Stage II
  /// runs once per case).
  std::map<std::string, double> layer_s;
  double total_s = 0.0;  // the root span
};

[[nodiscard]] MirroredSolve mirror_solve(const SolveInput& input, SpanLog& log,
                                         std::uint64_t solve_id,
                                         const std::atomic<bool>* cancel);

}  // namespace perfbench
