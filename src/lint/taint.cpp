#include "lint/taint.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/text.hpp"

namespace cdsf::lint {

namespace {

/// Rules whose file-wide allowance also exempts a file from seeding or
/// being flagged by the taint pass (the allowance already documents why
/// the file may touch the clock / RNG).
bool file_wide_exempt(const SourceFile& file) {
  for (const Suppression& s : file.suppressions()) {
    if (!s.file_wide) continue;
    if (s.rule == "wall-clock" || s.rule == "svc-wall-clock" || s.rule == "rng-source" ||
        s.rule == kTaintPass) {
      return true;
    }
  }
  return false;
}

bool trusted_file(const SourceFile& file) {
  const std::string path = normalize_path(file.path());
  if (ends_with(path, "util/rng.hpp")) return true;
  if (has_segment(path, "obs")) return true;
  return file_wide_exempt(file);
}

/// Rule ids whose line-level suppression silences a seed at that line.
bool seed_suppressed(const SourceFile& file, std::size_t line) {
  return file.suppressed("wall-clock", line) || file.suppressed("svc-wall-clock", line) ||
         file.suppressed("rng-source", line) || file.suppressed(kTaintPass, line);
}

struct Seed {
  std::string token;    ///< The clock/RNG token hit.
  std::size_t line = 0;
};

/// First clock/RNG token hit inside [begin, end) of `file`'s scrubbed view,
/// honouring line-level suppressions of the underlying lexical rules.
bool find_seed_in_span(const SourceFile& file, std::size_t begin, std::size_t end, Seed& out) {
  const std::string_view body = std::string_view(file.scrubbed()).substr(0, end);
  bool found = false;
  std::size_t best_pos = 0;
  const auto consider = [&](std::size_t pos, std::string_view token) {
    const std::size_t line = file.line_of(pos);
    if (seed_suppressed(file, line)) return;
    if (!found || pos < best_pos) {
      // Track the earliest hit for a stable, informative message.
      found = true;
      best_pos = pos;
      out.token = std::string(token);
      out.line = line;
    }
  };
  for (const std::string_view token : kWallClockTokens) {
    for (std::size_t pos = find_word(body, token, begin); pos != std::string_view::npos;
         pos = find_word(body, token, pos + 1)) {
      consider(pos, token);
    }
  }
  for (const std::string_view token : kRngTypeTokens) {
    for (std::size_t pos = find_word(body, token, begin); pos != std::string_view::npos;
         pos = find_word(body, token, pos + 1)) {
      consider(pos, token);
    }
  }
  for (const std::string_view token : kWallClockCCalls) {
    for (std::size_t pos = find_word(body, token, begin); pos != std::string_view::npos;
         pos = find_word(body, token, pos + 1)) {
      if (is_c_call_form(body, token, pos)) consider(pos, token);
    }
  }
  for (const std::string_view token : kRngCallTokens) {
    for (std::size_t pos = find_word(body, token, begin); pos != std::string_view::npos;
         pos = find_word(body, token, pos + 1)) {
      if (is_c_call_form(body, token, pos)) consider(pos, token);
    }
  }
  return found;
}

bool in_src(std::string_view path) { return has_segment(path, "src"); }

/// True when the function's defining file lies in a subsystem whose
/// behaviour must be time- and entropy-independent.
bool in_flagged_subsystem(std::string_view path) {
  return in_deterministic_path(path) || has_segment(path, "svc");
}

}  // namespace

TaintResult check_determinism_taint(const ProjectIndex& index) {
  TaintResult result;
  const std::size_t function_count = index.functions.size();

  // 1. Seeds: functions whose own body touches the clock / raw RNG.
  std::vector<Seed> seed_info(function_count);
  std::vector<bool> is_seed(function_count, false);
  for (std::size_t fi = 0; fi < function_count; ++fi) {
    const FunctionDef& def = index.functions[fi];
    const SourceFile& file = *index.files[def.file];
    if (trusted_file(file)) continue;
    if (find_seed_in_span(file, def.body_begin, def.body_end, seed_info[fi])) {
      is_seed[fi] = true;
      ++result.seeds;
    }
  }

  // 2. Reverse call edges (callee → callers) with conservative resolution.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> callers(
      function_count);  // callee → (caller, call line)
  for (const CallRef& call : index.calls) {
    const auto it = index.functions_by_name.find(call.name);
    if (it == index.functions_by_name.end()) continue;
    const std::size_t caller_file = index.functions[call.caller].file;
    const std::string& caller_path = index.files[caller_file]->path();

    // Same-file definitions win outright.
    std::vector<std::size_t> candidates;
    for (const std::size_t fi : it->second) {
      if (index.functions[fi].file == caller_file) candidates.push_back(fi);
    }
    if (candidates.empty()) {
      // Library callers must not bind to harness helpers with the same
      // name; a caller under src/ only resolves into src/.
      const bool caller_in_src = in_src(caller_path);
      for (const std::size_t fi : it->second) {
        if (caller_in_src && !in_src(index.files[index.functions[fi].file]->path())) continue;
        candidates.push_back(fi);
      }
      // Cross-file resolution demands a unique definition; an ambiguous
      // name (overloads / unrelated same-named helpers) binds to nothing.
      if (candidates.size() != 1) continue;
    }
    for (const std::size_t callee : candidates) {
      if (callee == call.caller) continue;
      callers[callee].emplace_back(call.caller, call.line);
    }
  }

  // 3. BFS from the seeds along reverse edges, recording the discovery
  //    parent so each flagged function carries a concrete call chain.
  std::vector<std::size_t> parent(function_count, ProjectIndex::npos);
  std::vector<bool> tainted(function_count, false);
  std::deque<std::size_t> queue;
  // Deterministic frontier order: seeds by (path, line).
  std::vector<std::size_t> seeds;
  for (std::size_t fi = 0; fi < function_count; ++fi) {
    if (is_seed[fi]) seeds.push_back(fi);
  }
  std::sort(seeds.begin(), seeds.end(), [&](std::size_t a, std::size_t b) {
    const FunctionDef& fa = index.functions[a];
    const FunctionDef& fb = index.functions[b];
    const std::string& pa = index.files[fa.file]->path();
    const std::string& pb = index.files[fb.file]->path();
    if (pa != pb) return pa < pb;
    return fa.line < fb.line;
  });
  for (const std::size_t fi : seeds) {
    tainted[fi] = true;
    queue.push_back(fi);
  }
  while (!queue.empty()) {
    const std::size_t callee = queue.front();
    queue.pop_front();
    // Trusted callers absorb taint rather than propagate it: a clock read
    // wrapped by util/rng.hpp is the sanctioned path.
    for (const auto& [caller, line] : callers[callee]) {
      if (tainted[caller]) continue;
      if (trusted_file(*index.files[index.functions[caller].file])) continue;
      tainted[caller] = true;
      parent[caller] = callee;
      queue.push_back(caller);
    }
  }
  for (std::size_t fi = 0; fi < function_count; ++fi) {
    if (tainted[fi]) ++result.tainted;
  }

  // 4. Flag indirectly tainted functions in the deterministic subsystems.
  //    Direct seeds there are the lexical rules' findings already — the
  //    taint pass owns only what file-local matching cannot see.
  for (std::size_t fi = 0; fi < function_count; ++fi) {
    if (!tainted[fi] || is_seed[fi]) continue;
    const FunctionDef& def = index.functions[fi];
    const SourceFile& file = *index.files[def.file];
    if (!in_flagged_subsystem(file.path())) continue;
    if (trusted_file(file)) continue;
    // Reconstruct the chain down to the seed.
    std::string chain = def.display;
    std::size_t cursor = fi;
    std::size_t seed_fn = fi;
    while (parent[cursor] != ProjectIndex::npos) {
      cursor = parent[cursor];
      chain += " -> " + index.functions[cursor].display;
      seed_fn = cursor;
    }
    const FunctionDef& seed_def = index.functions[seed_fn];
    const Seed& seed = seed_info[seed_fn];
    result.diagnostics.push_back(
        {file.path(), def.line, kTaintPass,
         "'" + def.display + "' transitively reaches a host clock/RNG source: " + chain +
             " (" + index.files[seed_def.file]->path() + ":" + std::to_string(seed.line) +
             " uses " + seed.token + "); route time/randomness through the simulation "
             "clock or util::RngStream",
         false, kTaintPass});
  }

  std::sort(result.diagnostics.begin(), result.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  return result;
}

}  // namespace cdsf::lint
