// Micro-benchmarks (google-benchmark) for the discrete-event loop
// simulator and the Stage I robustness evaluation — the two hot paths of
// every experiment in this repository.
#include <benchmark/benchmark.h>

#include "cdsf/paper_example.hpp"
#include "ra/heuristics.hpp"
#include "sim/engine.hpp"
#include "sim/loop_executor.hpp"

namespace {

using namespace cdsf;

void BM_SimulateLoopApp3(benchmark::State& state) {
  const core::PaperExample example = core::make_paper_example();
  const auto id = static_cast<dls::TechniqueId>(state.range(0));
  const sim::SimConfig config;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate_loop(example.batch.at(2), 1, 8, example.cases.front(), id, config,
                           seed++));
  }
  state.SetLabel(dls::technique_name(id));
}
BENCHMARK(BM_SimulateLoopApp3)
    ->Arg(static_cast<int>(dls::TechniqueId::kStatic))
    ->Arg(static_cast<int>(dls::TechniqueId::kSS))
    ->Arg(static_cast<int>(dls::TechniqueId::kFAC))
    ->Arg(static_cast<int>(dls::TechniqueId::kAWF_B))
    ->Arg(static_cast<int>(dls::TechniqueId::kAF));

void BM_StageOneExhaustive(benchmark::State& state) {
  const core::PaperExample example = core::make_paper_example();
  for (auto _ : state) {
    // Fresh evaluator per iteration: measures the uncached search cost.
    ra::RobustnessEvaluator evaluator(example.batch, example.cases.front(), example.deadline);
    benchmark::DoNotOptimize(ra::ExhaustiveOptimal().allocate(
        evaluator, example.platform, ra::CountRule::kPowerOfTwo));
  }
}
BENCHMARK(BM_StageOneExhaustive);

void BM_JointProbabilityCached(benchmark::State& state) {
  const core::PaperExample example = core::make_paper_example();
  ra::RobustnessEvaluator evaluator(example.batch, example.cases.front(), example.deadline);
  const ra::Allocation allocation = core::paper_robust_allocation();
  (void)evaluator.joint_probability(allocation);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.joint_probability(allocation));
  }
}
BENCHMARK(BM_JointProbabilityCached);

void BM_EventEngineThroughput(benchmark::State& state) {
  struct Tick {};
  for (auto _ : state) {
    sim::Engine<Tick> engine;
    std::uint64_t count = 0;
    engine.schedule_at(0.0, Tick{});
    benchmark::DoNotOptimize(engine.run([&](const Tick&) {
      if (++count < 10000) engine.schedule_after(1.0, Tick{});
    }));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_EventEngineThroughput);

}  // namespace

BENCHMARK_MAIN();
