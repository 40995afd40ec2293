// In-process test of the benchmark's own result checks: every check must
// pass on a correct result and fire on a result corrupted to break it.
#pragma once

#include <string>

namespace perfbench {

/// Returns 0 when every check behaves, 1 otherwise. Writes its journal
/// files under `scratch`.
int run_self_test(const std::string& scratch);

}  // namespace perfbench
