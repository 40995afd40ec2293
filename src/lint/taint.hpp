// determinism-taint pass: transitive propagation of host-clock / raw-RNG
// reads over the indexed call graph.
//
// The file-local wall-clock / rng-source rules catch a clock read *in* a
// deterministic subsystem; this pass catches the laundered version — a
// helper in util/ (or anywhere outside the deterministic tree) that reads
// the host clock and is then called from sim//dls//cdsf//svc/. Seeds are
// the same token sets the lexical rules use (lint/text.hpp, single source
// of truth); taint flows callee→caller over the name-resolved call graph
// and a diagnostic is emitted at the definition of every function in a
// deterministic subsystem that can reach a seed, with the full call chain
// in the message.
//
// Trusted sources never seed and are never flagged: util/rng.hpp (the
// seeded RNG fan-out), all of obs/ (timestamps are observability metadata,
// excluded from byte-compare scopes), and files that file-wide-allow the
// underlying lexical rule.
// Call resolution is conservative: same-file definitions win, src/ callers
// only bind to src/ definitions, and an ambiguous name (multiple unrelated
// definitions) resolves to nothing rather than guessing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/index.hpp"
#include "lint/rules.hpp"

namespace cdsf::lint {

/// Pass id used in diagnostics and allow(...) suppressions.
inline constexpr const char* kTaintPass = "determinism-taint";

struct TaintResult {
  std::vector<Diagnostic> diagnostics;
  std::size_t seeds = 0;    ///< Functions directly touching clock/RNG.
  std::size_t tainted = 0;  ///< Functions reachable from a seed (any file).
};

[[nodiscard]] TaintResult check_determinism_taint(const ProjectIndex& index);

}  // namespace cdsf::lint
