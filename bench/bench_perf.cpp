// Performance microbenchmarks for the optimised layers (DESIGN.md
// "Performance" and "SIMD & batching"):
//   1. dense simplex: cold vs warm-started per-slot LP solves;
//   2. nn matrix kernels: allocating matmul vs matmul_into and the
//      transpose-free backward kernels;
//   3. SIMD vs scalar kernel ratios (fixed sizes, gated at >= x4);
//   4. GAN inference: batched vs sequential predict_next;
//   5. one full OL_GD slot (flow-based fractional solve + rounding +
//      bandit update) on the fig-3-sized workload; its min-cost-flow
//      work counts are gated against the committed baseline when
//      --baseline is given.
// Results are printed as a table and written to BENCH_perf.json in the
// working directory. `--quick` shrinks instances and repetition counts
// for the CTest perf-smoke label — except the gated sections, which keep
// fixed instance sizes so their ratios and counts stay meaningful.
// `--baseline <path>` compares against a recorded BENCH_perf.json (see
// bench/baselines/) and fails with a named delta on regression.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/ol_gd.h"
#include "bench_util.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "core/lp_formulation.h"
#include "gan/info_rnn_gan.h"
#include "lp/simplex.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sim/scenario.h"
#include "sim/simulator.h"

using namespace mecsc;

namespace {

struct BenchResult {
  std::string name;
  std::size_t iterations = 0;
  double total_ms = 0.0;
  double ms_per_iter() const {
    return iterations == 0 ? 0.0 : total_ms / static_cast<double>(iterations);
  }
};

/// Times `body()` run `iters` times — repeated in rounds of `iters`
/// until the window has lasted at least `min_ms`.
template <typename F>
BenchResult run_bench(std::string name, std::size_t iters, F&& body,
                      double min_ms = 0.0) {
  common::Stopwatch watch;
  std::size_t done = 0;
  do {
    for (std::size_t i = 0; i < iters; ++i) body(done + i);
    done += iters;
  } while (watch.elapsed_ms() < min_ms);
  BenchResult r;
  r.name = std::move(name);
  r.iterations = done;
  r.total_ms = watch.elapsed_ms();
  std::cout << "  " << r.name << ": " << common::fmt(r.ms_per_iter(), 4)
            << " ms/iter over " << r.iterations << " iters\n";
  return r;
}

/// The value after `"key": ` on the first line of a baselines JSON
/// (write_json format) that contains `needle`, or a negative value when
/// absent. The parse is a string scan — the files are machine-written,
/// one benchmark object or work count per line.
double baseline_value(const std::string& path, const std::string& needle,
                      const std::string& key) {
  std::ifstream in(path);
  if (!in) return -1.0;
  const std::string field = "\"" + key + "\": ";
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(needle) == std::string::npos) continue;
    const std::size_t at = line.find(field);
    if (at == std::string::npos) return -1.0;
    return std::strtod(line.c_str() + at + field.size(), nullptr);
  }
  return -1.0;
}

/// Min-cost-flow work of the ol_gd_slot run, counted by the solver's own
/// telemetry counters. Exact for the fixed instance: identical across
/// build types and SIMD modes.
struct WorkCount {
  const char* counter;
  double value = 0.0;
};

void write_json(const std::vector<BenchResult>& results,
                const std::vector<WorkCount>& work, bool quick) {
  std::ofstream out("BENCH_perf.json");
  out << "{\n  " << bench::json_meta() << ",\n  \"quick\": "
      << (quick ? "true" : "false") << ",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"iterations\": " << r.iterations
        << ", \"total_ms\": " << r.total_ms
        << ", \"ms_per_iter\": " << r.ms_per_iter() << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"ol_gd_slot_work\": {\n";
  for (std::size_t i = 0; i < work.size(); ++i) {
    out << "    \"" << work[i].counter
        << "\": " << common::fmt(work[i].value, 0)
        << (i + 1 < work.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    }
  }
  std::vector<std::string> gate_failures;

  bench::print_header("Performance microbenchmarks (simplex / nn / OL_GD slot)",
                      std::string("DESIGN.md Performance; BENCH_perf.json") +
                          (quick ? " [--quick]" : ""));

  std::vector<BenchResult> results;

  // --- 1. Simplex: per-slot LP, cold vs warm-started. --------------------
  {
    const std::size_t stations = quick ? 8 : 15;
    const std::size_t requests = quick ? 10 : 20;
    const std::size_t solves = quick ? 5 : 30;
    sim::ScenarioParams p;
    p.num_stations = stations;
    p.horizon = solves;
    p.workload.num_requests = requests;
    p.seed = 42;
    sim::Scenario s(p);
    std::vector<double> theta(stations, s.theta_prior());
    lp::SimplexSolver solver;

    results.push_back(run_bench(
        "simplex_cold", solves, [&](std::size_t t) {
          core::LpFormulation lp(s.problem(), s.demands().slot(t), theta);
          lp::SimplexWorkspace fresh;
          (void)lp.solve(solver, fresh);
        }));
    lp::SimplexWorkspace ws;
    results.push_back(run_bench(
        "simplex_warm", solves, [&](std::size_t t) {
          core::LpFormulation lp(s.problem(), s.demands().slot(t), theta);
          (void)lp.solve(solver, ws);
        }));
  }

  // --- 2. NN kernels: matmul and the transpose-free backward pair. ------
  {
    const std::size_t n = quick ? 32 : 96;
    const std::size_t iters = quick ? 20 : 200;
    common::Rng rng(7);
    nn::Matrix a = nn::Matrix::randn(n, n, rng);
    nn::Matrix b = nn::Matrix::randn(n, n, rng);
    nn::Matrix out;
    double sink = 0.0;  // defeat dead-code elimination

    results.push_back(run_bench("matmul_alloc", iters, [&](std::size_t) {
      nn::Matrix c = nn::matmul(a, b);
      sink += c[0];
    }));
    results.push_back(run_bench("matmul_into", iters, [&](std::size_t) {
      nn::matmul_into(out, a, b);
      sink += out[0];
    }));
    results.push_back(run_bench("matmul_abT_into", iters, [&](std::size_t) {
      nn::matmul_abT_into(out, a, b);
      sink += out[0];
    }));
    results.push_back(run_bench("matmul_aTb_into", iters, [&](std::size_t) {
      nn::matmul_aTb_into(out, a, b);
      sink += out[0];
    }));
    if (sink == 12345.6789) std::cout << "";  // keep `sink` observable
  }

  // --- 3. SIMD vs scalar kernel ratios (gates: matmul >= x3, else x4). ---
  // Fixed sizes even under --quick: the ratio is in-process and relative,
  // so it is stable across machines, but it needs enough work per timing
  // window to rise above scheduler noise. Both arms run in this binary —
  // the dispatcher arm uses the AVX2 path when active, the reference arm
  // calls nn::scalar directly — so the comparison is live, not recorded.
  {
    const std::size_t n = 96;
    const std::size_t mm_iters = quick ? 60 : 200;
    const std::size_t ew_iters = quick ? 600 : 2000;
    common::Rng rng(11);
    nn::Matrix a = nn::Matrix::randn(n, n, rng);
    nn::Matrix b = nn::Matrix::randn(n, n, rng);
    nn::Matrix out;
    double sink = 0.0;

    struct Ratio {
      const char* kernel;
      double simd_ms;
      double scalar_ms;
      double min_ratio;
    };
    std::vector<Ratio> ratios;
    // Best-of-3 per arm: a one-shot window on a loaded box can eat a
    // scheduler slice in either arm and swing the ratio by 2x; the min
    // over repetitions is the classic de-noiser and is what the
    // per-kernel ratio gates should judge. The two arms' windows
    // alternate (simd, scalar, simd, scalar, ...), so a shift in host
    // state — clock, load, cache pressure — lands on both arms rather
    // than on whichever ran second, and each window lasts at least
    // kMinWindowMs so it spans many scheduler slices.
    constexpr double kMinWindowMs = 100.0;
    auto time_pair = [&](const char* kernel, std::size_t iters,
                         double min_ratio, auto&& simd_fn, auto&& scalar_fn) {
      const std::string simd_name = std::string("simd_") + kernel;
      const std::string scalar_name = std::string("scalar_") + kernel;
      auto rs = run_bench(simd_name, iters, simd_fn, kMinWindowMs);
      auto rr = run_bench(scalar_name, iters, scalar_fn, kMinWindowMs);
      for (int rep = 1; rep < 3; ++rep) {
        auto s = run_bench(simd_name, iters, simd_fn, kMinWindowMs);
        if (s.ms_per_iter() < rs.ms_per_iter()) rs = s;
        auto r = run_bench(scalar_name, iters, scalar_fn, kMinWindowMs);
        if (r.ms_per_iter() < rr.ms_per_iter()) rr = r;
      }
      ratios.push_back({kernel, rs.ms_per_iter(), rr.ms_per_iter(), min_ratio});
      results.push_back(rs);
      results.push_back(rr);
    };

    // Per-kernel gates: the element-wise kernels are compute-bound and
    // hold x4+ everywhere, but matmul at this tile size is partly
    // memory-bandwidth-bound — hosts with slow DRAM relative to core
    // clock sit at x3.5-3.8, which is healthy (a broken SIMD dispatch
    // shows up as ~x1), so its floor is x3.
    time_pair(
        "matmul", mm_iters, 3.0,
        [&](std::size_t) { nn::matmul_into(out, a, b); sink += out[0]; },
        [&](std::size_t) { nn::scalar::matmul_into(out, a, b); sink += out[0]; });
    time_pair(
        "sigmoid", ew_iters, 4.0,
        [&](std::size_t) { nn::map_sigmoid_into(out, a); sink += out[0]; },
        [&](std::size_t) { nn::scalar::map_sigmoid_into(out, a); sink += out[0]; });
    time_pair(
        "tanh", ew_iters, 4.0,
        [&](std::size_t) { nn::map_tanh_into(out, a); sink += out[0]; },
        [&](std::size_t) { nn::scalar::map_tanh_into(out, a); sink += out[0]; });
    if (sink == 12345.6789) std::cout << "";  // keep `sink` observable

    // A -mavx2/-march=native build auto-vectorizes the scalar reference
    // loops, so the ratio stops measuring hand-SIMD against a pre-SIMD
    // baseline; report it but don't gate on it.
    const bool gate_ratios =
        common::simd::active() && !nn::scalar::reference_is_vectorized();
    if (common::simd::active()) {
      if (!gate_ratios) {
        std::cout << "  simd ratio gates informational: scalar reference "
                     "compiled with AVX2 (not a pre-SIMD baseline)\n";
      }
      for (const auto& r : ratios) {
        const double ratio = r.simd_ms > 0.0 ? r.scalar_ms / r.simd_ms : 0.0;
        std::cout << "  simd ratio " << r.kernel << ": x"
                  << common::fmt(ratio, 2) << " (gate >= x"
                  << common::fmt(r.min_ratio, 1) << ")\n";
        if (gate_ratios && ratio < r.min_ratio) {
          std::ostringstream msg;
          msg << r.kernel << ": simd is only x" << common::fmt(ratio, 2)
              << " over scalar (" << common::fmt(r.simd_ms, 4) << " vs "
              << common::fmt(r.scalar_ms, 4) << " ms/iter, gate >= x"
              << common::fmt(r.min_ratio, 1) << ")";
          gate_failures.push_back(msg.str());
        }
      }
    } else {
      std::cout << "  simd ratio gates skipped (mode "
                << common::simd::mode_name() << ", reason '"
                << common::simd::scalar_reason() << "')\n";
    }
  }

  // --- 4. GAN inference: batched vs per-sequence predict. ----------------
  // The predictor issues one predict_next_batch over all (service,
  // station) pairs per slot; this section measures what that batching
  // buys over the old per-sequence loop on the same model, and asserts
  // the two give bit-identical forecasts (the batched pass is the same
  // arithmetic on stacked rows).
  {
    gan::InfoRnnGanConfig cfg;
    cfg.seq_len = 12;
    cfg.hidden = 16;
    gan::InfoRnnGan g(cfg, 99);
    const std::size_t batch = 64;
    const std::size_t iters = quick ? 2 : 8;
    std::vector<std::vector<double>> histories(batch);
    std::vector<std::size_t> clusters(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      histories[i].resize(cfg.seq_len);
      for (std::size_t t = 0; t < cfg.seq_len; ++t) {
        histories[i][t] = 0.5 + 0.4 * ((i * 31 + t * 7) % 17 / 17.0 - 0.5);
      }
      clusters[i] = i % cfg.num_codes;
    }
    std::vector<double> seq_out(batch), batch_out;
    auto rs = run_bench("gan_predict_sequential", iters, [&](std::size_t) {
      for (std::size_t i = 0; i < batch; ++i) {
        seq_out[i] = g.predict_next(histories[i], clusters[i]);
      }
    });
    auto rb = run_bench("gan_predict_batched", iters, [&](std::size_t) {
      batch_out = g.predict_next_batch(histories, clusters);
    });
    results.push_back(rs);
    results.push_back(rb);
    const double ratio =
        rb.ms_per_iter() > 0.0 ? rs.ms_per_iter() / rb.ms_per_iter() : 0.0;
    std::cout << "  gan batched speedup: x" << common::fmt(ratio, 2) << " at batch "
              << batch << "\n";
    for (std::size_t i = 0; i < batch; ++i) {
      if (batch_out[i] != seq_out[i]) {
        std::ostringstream msg;
        msg << "gan_predict_batched: forecast " << i << " diverges from the "
            << "sequential path (" << batch_out[i] << " vs " << seq_out[i]
            << ") — batched inference must be bit-identical";
        gate_failures.push_back(msg.str());
        break;
      }
    }
  }

  // --- 5. One full OL_GD slot on the fig-3 workload. ---------------------
  // Instance size AND slot count are fixed even under --quick, matching
  // the recorded baseline's config exactly: per-slot cost falls as the
  // bandit's estimates stabilise, so a 5-slot prefix would neither time
  // nor count like the 30-slot run. Telemetry is switched on for this
  // run only, into a private registry, so the flow solver's work counts
  // can be gated below; the previous level is restored so section 6
  // still measures the disabled path.
  std::vector<WorkCount> work = {{"mcf.augmentations"}, {"mcf.arcs_scanned"}};
  double ol_gd_ms_per_slot = 0.0;
  {
    const std::size_t stations = 100;
    const std::size_t requests = 100;
    const std::size_t slots = 30;
    sim::ScenarioParams p;
    p.num_stations = stations;
    p.horizon = slots;
    p.workload.num_requests = requests;
    p.seed = 1000;
    sim::Scenario s(p);
    algorithms::OlOptions opt;
    opt.theta_prior = s.theta_prior();
    auto ol = algorithms::make_ol_gd(s.problem(), s.demands(), opt,
                                     s.algorithm_seed(0));
    const obs::Level level_before = obs::level();
    if (level_before == obs::Level::kOff) obs::set_level(obs::Level::kSummary);
    obs::Registry counted;
    sim::RunResult r;
    common::Stopwatch watch;
    {
      obs::ScopedRegistry scope(&counted);
      r = s.simulator().run(*ol);
    }
    BenchResult b;
    b.name = "ol_gd_slot";
    b.iterations = slots;
    b.total_ms = watch.elapsed_ms();
    obs::set_level(level_before);
    for (WorkCount& w : work) w.value = counted.counter(w.counter).value();
    std::cout << "  " << b.name << ": " << common::fmt(b.ms_per_iter(), 4)
              << " ms/slot over " << slots << " slots (mean delay "
              << common::fmt(r.mean_delay_ms(), 2) << " ms, "
              << common::fmt(work[0].value, 0) << " augmentations, "
              << common::fmt(work[1].value, 0) << " arcs scanned)\n";
    ol_gd_ms_per_slot = b.ms_per_iter();
    results.push_back(b);
  }

  // --- 6. Telemetry-off overhead: the disabled-path macro must stay in
  // the low-nanosecond range (a relaxed atomic load + branch). The bound
  // is deliberately generous — it guards against accidentally making the
  // off path allocate or lock, not against scheduler noise.
  if (!obs::enabled()) {
    const std::size_t iters = quick ? 200000 : 2000000;
    common::Stopwatch watch;
    double sink = 0.0;
    for (std::size_t i = 0; i < iters; ++i) {
      MECSC_COUNT("bench.noop", 1.0);
      MECSC_HISTOGRAM("bench.noop_hist", static_cast<double>(i));
      sink += static_cast<double>(i & 1);
    }
    const double total_ms = watch.elapsed_ms();
    const double ns_per_call = total_ms * 1e6 / static_cast<double>(2 * iters);
    BenchResult b;
    b.name = "telemetry_off_noop";
    b.iterations = 2 * iters;
    b.total_ms = total_ms;
    std::cout << "  " << b.name << ": " << common::fmt(ns_per_call, 2)
              << " ns/call over " << b.iterations << " disabled macro calls\n";
    results.push_back(b);
    if (sink < 0.0) std::cout << "";  // keep `sink` observable
    if (ns_per_call > 100.0) {
      std::cerr << "FAIL: disabled telemetry macro costs " << ns_per_call
                << " ns/call (budget 100 ns) — the off path regressed\n";
      return 1;
    }
  }

  // --- Baseline comparison: ol_gd_slot's flow work. ----------------------
  // The gate is on work counts, not time: the recorded counts are exact
  // for this fixed instance in every build type and SIMD mode, so a
  // machine or scheduler change cannot move them. 1.1x still catches what
  // the gate is for: with the per-source fast path off, this run scans
  // x1.95 the arcs, and with the working-set pruning off x7.0. ms/slot
  // against the recorded scalar figure is printed for information only.
  if (!baseline_path.empty()) {
    constexpr double kMaxWorkGrowth = 1.1;
    for (const WorkCount& w : work) {
      const double base = baseline_value(baseline_path,
                                         std::string("\"") + w.counter + "\"",
                                         w.counter);
      if (base <= 0.0 || w.value <= 0.0) {
        gate_failures.push_back(std::string("baseline comparison: ") +
                                w.counter + " missing from " +
                                (base <= 0.0 ? baseline_path : "this run"));
        continue;
      }
      const double growth = w.value / base;
      std::cout << "  ol_gd_slot " << w.counter << " vs baseline: "
                << common::fmt(w.value, 0) << " vs " << common::fmt(base, 0)
                << " — x" << common::fmt(growth, 3) << " (gate <= x"
                << common::fmt(kMaxWorkGrowth, 1) << ")\n";
      if (growth > kMaxWorkGrowth) {
        std::ostringstream msg;
        msg << "ol_gd_slot: " << w.counter << " " << common::fmt(w.value, 0)
            << " is x" << common::fmt(growth, 3) << " the committed baseline "
            << common::fmt(base, 0) << " (gate <= x"
            << common::fmt(kMaxWorkGrowth, 1) << ", " << baseline_path << ")";
        gate_failures.push_back(msg.str());
      }
    }
    const double base_ms = baseline_value(
        baseline_path, "\"name\": \"ol_gd_slot\"", "ms_per_iter");
    if (base_ms > 0.0) {
      std::cout << "  ol_gd_slot vs scalar baseline (information only): "
                << common::fmt(ol_gd_ms_per_slot, 4) << " vs "
                << common::fmt(base_ms, 4) << " ms/slot — x"
                << common::fmt(base_ms / ol_gd_ms_per_slot, 2) << "\n";
    }
  }

  write_json(results, work, quick);
  std::cout << "\nwrote BENCH_perf.json\n";
  bench::dump_telemetry();
  if (!gate_failures.empty()) {
    for (const auto& f : gate_failures) std::cerr << "FAIL: " << f << "\n";
    return 1;
  }
  return 0;
}
