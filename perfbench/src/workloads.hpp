// The four workloads and the per-layer probe suite. Each workload fills
// the report with the end-to-end metrics and, when traced, with its share
// of the per-layer metrics, and counts requests attempted and failed in
// `out`.
#pragma once

#include "common.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/net/reactor.hpp"
#include "iatf/serve/server.hpp"

namespace perfbench {

/// Fixed load constants, recorded in BENCHMARK.json's workload notes
/// (`ragged`, which is not gated, in the README).
inline constexpr double kRaggedRate = 4000.0;      ///< req/s, open loop
inline constexpr int kRaggedTenants = 4;
inline constexpr int kRaggedOutstanding = 32;      ///< saturation phase
inline constexpr int kWireOutstanding = 16;        ///< saturation phase
inline constexpr unsigned kGroupedWorkers = 2;     ///< ThreadPool(2)
inline constexpr int kSetupReps = 9;               ///< setup_s is a median

/// Time windows per timed phase, and the quartiles reported across them
/// (bench_util.hpp, "Time windows"). A window's p90 needs 100 samples to
/// have ten beyond it.
inline constexpr int kWindows = 10;
inline constexpr double kTimeQuartile = 25;
inline constexpr double kRateQuartile = 75;
inline constexpr std::size_t kMinWindowSamples = 100;

void run_compact(const Options& opt, Report& rep, Outcome& out);
void run_ragged(const Options& opt, Report& rep, Outcome& out);
void run_wire(const Options& opt, Report& rep, Outcome& out);
void run_grouped(const Options& opt, Report& rep, Outcome& out);

/// Per-layer probes that time calls into each module's public functions
/// on the seeded inputs (a few seconds of fixed work); run by every traced
/// run. Fills every per-layer metric the workload itself does not.
void run_probes(const Options& opt, Report& rep, Outcome& out);

/// Per-layer counts from an engine's stats over a timed span (plan cache,
/// resilience) and from a server's (serve), shared by the workloads.
void set_engine_counts(Report& rep, const iatf::Engine& engine,
                       const iatf::EngineStats& before,
                       const iatf::EngineStats& after);
void set_serve_counts(Report& rep, const iatf::serve::ServerStats& before,
                      const iatf::serve::ServerStats& after);
void set_net_counts(Report& rep, const iatf::net::NetStats& before,
                    const iatf::net::NetStats& after);

} // namespace perfbench
