#include "iatf/core/engine.hpp"

#include <algorithm>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "engine_ops.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"
#include "iatf/ref/ref_blas.hpp"
#include "iatf/tune/descriptor.hpp"
#include "iatf/tune/tuning_table.hpp"

namespace iatf {
namespace {

using detail::dtype_tag;

std::size_t resolve_capacity(std::size_t requested) {
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("IATF_PLAN_CACHE_CAP")) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<std::size_t>(v);
    }
  }
  return Engine::kDefaultPlanCacheCapacity;
}

/// Positive integer from the environment, or 0 when unset/malformed.
long long env_positive(const char* name) {
  if (const char* env = std::getenv(name)) {
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return v;
    }
  }
  return 0;
}

/// Map a plan type back to its scalar type and SIMD width so the
/// type-erased cache can attach engine-wide kernel identities.
template <class Plan> struct plan_traits;
template <class T, int B> struct plan_traits<plan::GemmPlan<T, B>> {
  using value_type = T;
  static constexpr int bytes = B;
};
template <class T, int B> struct plan_traits<plan::TrsmPlan<T, B>> {
  using value_type = T;
  static constexpr int bytes = B;
};
template <class T, int B> struct plan_traits<factor::FactorPlan<T, B>> {
  using value_type = T;
  static constexpr int bytes = B;
};

template <class Plan>
std::vector<resilience::KernelId> kernel_ids_of(const Plan& plan) {
  using Traits = plan_traits<Plan>;
  std::vector<resilience::KernelId> ids;
  ids.reserve(plan.kernels_used().size());
  for (const resilience::KernelUse& use : plan.kernels_used()) {
    ids.push_back(resilience::KernelId{
        use.kind, dtype_tag<typename Traits::value_type>(), Traits::bytes,
        use.m, use.n});
  }
  return ids;
}

/// Deterministic canary operand: small exact binary fractions, so the
/// tiled kernels and the scalar reference agree to a few ulps and a
/// mismatch means a broken kernel, not accumulated rounding.
template <class T> T canary_value(int seed) {
  const double re = ((seed % 11) - 5) * 0.0625;
  if constexpr (is_complex_v<T>) {
    const double im = (((seed / 3) % 7) - 3) * 0.125;
    return T(static_cast<real_t<T>>(re), static_cast<real_t<T>>(im));
  } else {
    return static_cast<T>(re);
  }
}

template <class T>
void fill_canary(CompactBuffer<T>& buf, int salt) {
  for (index_t b = 0; b < buf.batch(); ++b) {
    for (index_t j = 0; j < buf.cols(); ++j) {
      for (index_t i = 0; i < buf.rows(); ++i) {
        buf.set(b, i, j,
                canary_value<T>(static_cast<int>(salt + 13 * b + 7 * j +
                                                 3 * i)));
      }
    }
  }
}

/// Well-conditioned canary triangle: power-of-two diagonal (exact
/// reciprocal) with small exact sub-diagonal entries.
template <class T>
void fill_canary_triangle(CompactBuffer<T>& buf, int salt) {
  for (index_t b = 0; b < buf.batch(); ++b) {
    for (index_t j = 0; j < buf.cols(); ++j) {
      for (index_t i = 0; i < buf.rows(); ++i) {
        if (i == j) {
          buf.set(b, i, j, T(2));
        } else {
          buf.set(b, i, j,
                  canary_value<T>(static_cast<int>(salt + 13 * b + 7 * j +
                                                   3 * i)));
        }
      }
    }
  }
}

/// Lane-by-lane comparison of a computed buffer against the scalar
/// reference result, ulp-scaled.
template <class T>
bool canary_lane_matches(const std::vector<T>& got,
                         const std::vector<T>& want) {
  using R = real_t<T>;
  const R tol = std::numeric_limits<R>::epsilon() * R(512);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const R err = static_cast<R>(std::abs(got[i] - want[i]));
    const R mag = static_cast<R>(std::abs(want[i]));
    if (!(err <= tol * (R(1) + mag))) {
      return false; // also catches NaN
    }
  }
  return true;
}

/// Capped exponential backoff before a transient-failure retry; never
/// sleeps past the call deadline.
void backoff_sleep(std::chrono::nanoseconds delay,
                   const Deadline* deadline) {
  if (delay.count() <= 0) {
    return;
  }
  if (deadline != nullptr) {
    const auto left = deadline->at - std::chrono::steady_clock::now();
    if (left <= std::chrono::nanoseconds::zero()) {
      return;
    }
    delay = std::min(delay,
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         left));
  }
  std::this_thread::sleep_for(delay);
}

/// Rebuild a plan whose kernel set intersects the quarantine ledger with
/// descending tile caps until the command queue avoids every quarantined
/// kernel. When no cap combination helps, the plan is pre-marked
/// Quarantined so dispatch ref-routes it without re-running canaries.
template <class OpT>
void substitute_quarantined(std::unique_ptr<typename OpT::Plan>& plan,
                            const typename OpT::Shape& shape,
                            const CacheInfo& cache,
                            const plan::PlanTuning& tuning,
                            const resilience::KernelGuard& guard) {
  if (!guard.any_quarantined(kernel_ids_of(*plan))) {
    return;
  }
  for (index_t mc = OpT::mc_cap; mc >= 1; --mc) {
    for (index_t nc = OpT::nc_cap; nc >= 1; --nc) {
      plan::PlanTuning t = tuning;
      t.mc_cap = mc;
      t.nc_cap = nc;
      auto candidate =
          std::make_unique<typename OpT::Plan>(shape, cache, t);
      if (!guard.any_quarantined(kernel_ids_of(*candidate))) {
        plan = std::move(candidate);
        return;
      }
    }
  }
  plan->set_verify_state(resilience::PlanVerify::Quarantined);
}

} // namespace

Engine::Engine(CacheInfo cache, std::size_t plan_cache_capacity)
    : cache_(cache) {
  capacity_.store(resolve_capacity(plan_cache_capacity),
                  std::memory_order_relaxed);
  auto config = std::make_shared<TuningConfig>();
  config->generation = 0;
  tuning_.store(std::shared_ptr<const TuningConfig>(std::move(config)),
                std::memory_order_release);
  // Serving-hardening knobs from the environment (DESIGN.md section 11).
  if (const long long v = env_positive("IATF_MAX_INFLIGHT")) {
    max_inflight_.store(static_cast<std::size_t>(v),
                        std::memory_order_relaxed);
  }
  if (const long long w = env_positive("IATF_BREAKER_WINDOW")) {
    resilience::BreakerConfig bc;
    bc.window = static_cast<int>(w);
    bc.threshold = std::max(1, static_cast<int>(w / 4));
    bc.cooldown = static_cast<int>(2 * w);
    breaker_.configure(bc);
  }
  if (const long long r = env_positive("IATF_RETRY_MAX")) {
    retry_attempts_.store(static_cast<int>(r), std::memory_order_relaxed);
  }
  if (const long long s = env_positive("IATF_RETRY_JITTER_SEED")) {
    retry_seed_.store(static_cast<std::uint64_t>(s),
                      std::memory_order_relaxed);
  }
  // Attach the health ledger last: replay seeds breaker slots, and the
  // IATF_BREAKER_WINDOW configure() above resets every slot, so the
  // order matters (DESIGN.md section 14).
  if (const std::string ledger = resilience::HealthLedger::default_path();
      !ledger.empty()) {
    set_health_ledger(ledger);
  }
}

Engine::~Engine() {
  // Shutdown ordering contract (DESIGN.md section 12): a Server's
  // dispatcher thread holds a bare Engine& and may be mid-dispatch, so
  // destroying the engine first is a guaranteed use-after-free. Fail
  // loudly and immediately instead of corrupting memory.
  const std::size_t servers = servers_.load(std::memory_order_relaxed);
  if (servers != 0) {
    std::fprintf(stderr,
                 "iatf: fatal: Engine destroyed while %zu "
                 "iatf::serve::Server instance(s) are still attached; "
                 "destroy (or stop()) every Server before its engine\n",
                 servers);
    std::abort();
  }
}

std::size_t Engine::PlanKeyHash::operator()(const PlanKey& k) const noexcept {
  // FNV-1a over the class fields, then the dtype, then fmix64. FNV's
  // multiply only carries bits upward: without the finaliser the fields
  // packed at bit >= 6 (op tag, op_b, side, uplo, diag) would never reach
  // the breaker's low-bit slot index.
  std::uint64_t h = sched::ClassKeyHash{}(k.cls);
  h ^= static_cast<std::uint64_t>(k.dtype);
  h *= 1099511628211ull;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<std::size_t>(h);
}

Engine::Shard& Engine::shard_for(const PlanKey& key) {
  // The map's buckets use the low bits; take high bits for the shard so
  // the two decisions stay decorrelated.
  const std::size_t h = PlanKeyHash{}(key);
  return shards_[(h >> 56) % kPlanCacheShards];
}

std::size_t Engine::shard_capacity() const noexcept {
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);
  const std::size_t per = (cap + kPlanCacheShards - 1) / kPlanCacheShards;
  return per > 0 ? per : 1;
}

void Engine::evict_to_capacity(PlanMap& map, std::size_t cap) {
  while (map.size() > cap && !map.empty()) {
    // Fault site: an eviction that throws must not fail the lookup -- the
    // built plan is still returned, just not cached.
    IATF_FAULT_POINT("cache.evict", ::iatf::Status::Internal);
    auto victim = map.begin();
    std::uint64_t oldest =
        victim->second->last_used.load(std::memory_order_relaxed);
    for (auto it = std::next(map.begin()); it != map.end(); ++it) {
      const std::uint64_t used =
          it->second->last_used.load(std::memory_order_relaxed);
      if (used < oldest) {
        oldest = used;
        victim = it;
      }
    }
    map.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Engine::insert_plan(Shard& shard, const PlanKey& key,
                         std::shared_ptr<const void> plan, bool tuned,
                         std::vector<resilience::KernelId> kernels,
                         std::uint64_t generation, std::uint64_t now) {
  std::lock_guard<std::mutex> lock(shard.mu);
  // The build resolved its tuning against the config of `generation`; if
  // the engine was reconfigured (or the cache cleared) since, this plan
  // would poison the fresh cache -- drop it instead. The caller still
  // returns it to the requesting threads.
  if (generation_.load(std::memory_order_acquire) != generation) {
    return;
  }
  auto old = shard.snapshot.load(std::memory_order_acquire);
  auto next = old ? std::make_shared<PlanMap>(*old)
                  : std::make_shared<PlanMap>();
  evict_to_capacity(*next, shard_capacity() - 1);
  auto entry = std::make_shared<CacheEntry>();
  entry->plan = std::move(plan);
  entry->tuned = tuned;
  entry->kernels = std::move(kernels);
  entry->last_used.store(now, std::memory_order_relaxed);
  (*next)[key] = std::move(entry);
  shard.snapshot.store(std::shared_ptr<const PlanMap>(std::move(next)),
                       std::memory_order_release);
  if (tuned) {
    tuned_.fetch_add(1, std::memory_order_relaxed);
  }
}

template <class Plan, class Make>
std::shared_ptr<const Plan> Engine::lookup(const PlanKey& key, Make&& make) {
  const std::uint64_t now =
      tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  Shard& shard = shard_for(key);

  // Fast path: one atomic load of the shard's immutable snapshot. No
  // exclusive lock is taken on a hit.
  if (auto map = shard.snapshot.load(std::memory_order_acquire)) {
    auto it = map->find(key);
    if (it != map->end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      it->second->last_used.store(now, std::memory_order_relaxed);
      return std::static_pointer_cast<const Plan>(it->second->plan);
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);

  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Re-check: a leader may have published between our snapshot load and
    // here. The miss above already counted, so no extra hit is recorded
    // (hits + misses always equals lookups).
    if (auto map = shard.snapshot.load(std::memory_order_acquire)) {
      auto it = map->find(key);
      if (it != map->end()) {
        it->second->last_used.store(now, std::memory_order_relaxed);
        return std::static_pointer_cast<const Plan>(it->second->plan);
      }
    }
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    auto it = shard.inflight.find(key);
    if (it != shard.inflight.end() && it->second->generation == gen) {
      flight = it->second; // join the in-flight build
    } else {
      flight = std::make_shared<Flight>();
      flight->generation = gen;
      shard.inflight[key] = flight; // replaces a stale-generation flight
      leader = true;
    }
  }

  if (!leader) {
    std::unique_lock<std::mutex> fl(flight->mu);
    flight->cv.wait(fl, [&] { return flight->done; });
    if (flight->error) {
      std::rethrow_exception(flight->error);
    }
    return std::static_pointer_cast<const Plan>(flight->plan);
  }

  // Single-flight leader: build outside every lock so joiners (and every
  // other shard) are never blocked behind plan construction.
  builds_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const Plan> typed;
  std::shared_ptr<const void> plan;
  bool tuned = false;
  std::uint64_t config_gen = 0;
  std::exception_ptr error;
  try {
    typed = std::shared_ptr<const Plan>(make(&tuned, &config_gen));
    plan = typed;
  } catch (...) {
    error = std::current_exception();
  }

  if (!error) {
    try {
      insert_plan(shard, key, plan, tuned, kernel_ids_of(*typed),
                  config_gen, now);
    } catch (...) {
      // Cache-insert failures (eviction fault, bad_alloc on the map copy)
      // must not fail the call: the plan is returned uncached.
    }
  }

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.inflight.find(key);
    if (it != shard.inflight.end() && it->second == flight) {
      shard.inflight.erase(it); // by identity: never remove a successor
    }
  }
  {
    std::lock_guard<std::mutex> fl(flight->mu);
    flight->plan = plan;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();

  if (error) {
    std::rethrow_exception(error);
  }
  return std::static_pointer_cast<const Plan>(plan);
}

// --- Plan keys and plan construction ---------------------------------------

template <class OpT>
Engine::PlanKey Engine::plan_key(const typename OpT::Shape& shape) {
  return PlanKey{OpT::class_key(shape),
                 dtype_tag<typename OpT::value_type>()};
}

template <class OpT>
std::shared_ptr<const typename OpT::Plan>
Engine::plan_for(const typename OpT::Shape& shape) {
  using Plan = typename OpT::Plan;
  return lookup<Plan>(
      plan_key<OpT>(shape), [&](bool* tuned, std::uint64_t* config_gen) {
        IATF_FAULT_POINT(OpT::plan_site, ::iatf::Status::Unsupported);
        fault::stall_if_armed("plan.stall");
        const auto config = tuning_.load(std::memory_order_acquire);
        *config_gen = config->generation;
        if constexpr (OpT::tiled) {
          const plan::PlanTuning tuning =
              resolve_tuning(*config, OpT::tune_key(shape), tuned);
          auto plan = std::make_unique<Plan>(shape, cache_, tuning);
          if (kernel_verification() && guard_.quarantined_count() > 0) {
            substitute_quarantined<OpT>(plan, shape, cache_, tuning, guard_);
          }
          return plan.release();
        } else {
          // Factor plans take no tile tuning (the steps are straight-line
          // register sweeps), but the build still resolves against one
          // config generation so reconfigure() gates stale inserts.
          *tuned = false;
          return new Plan(shape);
        }
      });
}

template <class T, int Bytes>
std::shared_ptr<const plan::GemmPlan<T, Bytes>>
Engine::plan_gemm(const GemmShape& shape) {
  return plan_for<detail::GemmOp<T, Bytes>>(shape);
}

template <class T, int Bytes>
std::shared_ptr<const plan::TrsmPlan<T, Bytes>>
Engine::plan_trsm(const TrsmShape& shape) {
  return plan_for<detail::TrsmOp<T, Bytes>>(shape);
}

template <class T, int Bytes>
std::shared_ptr<const factor::FactorPlan<T, Bytes>>
Engine::plan_factor(const factor::FactorShape& shape) {
  return plan_for<detail::FactorOp<T, Bytes>>(shape);
}

// --- Guarded execution: call-scoped state -----------------------------------

/// Policy, pool and deadline, read once at call entry.
struct Engine::CallContext {
  ExecPolicy policy;
  ThreadPool* pool;
  Deadline at{};
  bool bounded = false;

  explicit CallContext(const Engine& engine)
      : policy(engine.policy_.load(std::memory_order_relaxed)),
        pool(engine.pool_.load(std::memory_order_relaxed)) {
    const std::int64_t budget =
        engine.deadline_ns_.load(std::memory_order_relaxed);
    if (budget > 0) {
      at = Deadline::in(std::chrono::nanoseconds(budget));
      bounded = true;
    }
  }

  const Deadline* deadline() const noexcept {
    return bounded ? &at : nullptr;
  }
};

/// Counts the call in on construction (admit_call, which may shed or time
/// out by throwing -- without taking a slot, so nothing is released) and
/// releases the slot on every exit path.
class Engine::Admission {
public:
  Admission(Engine& engine, const Deadline* deadline)
      : engine_(engine),
        ref_route_(engine.admit_call(deadline) == Admit::RefRoute) {}
  ~Admission() { engine_.release_call(); }
  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;

  /// DegradeToRef past the budget: serve the call on the reference path.
  bool ref_route() const noexcept { return ref_route_; }

private:
  Engine& engine_;
  bool ref_route_;
};

/// One descriptor class's breaker decision for one call. An admitted
/// (Allow or Probe) class is recorded when its gate is destroyed -- on
/// every exit path, exceptions included, so a probe can never be left
/// in flight -- as degraded unless settle() reported otherwise.
class Engine::BreakerGate {
public:
  BreakerGate() = default; ///< breaker disabled: nothing to record
  BreakerGate(Engine* engine, std::size_t slot, bool probe,
              DegradeEvent route) noexcept
      : engine_(engine), slot_(slot), probe_(probe), route_(route) {}
  BreakerGate(BreakerGate&& other) noexcept
      : engine_(std::exchange(other.engine_, nullptr)), slot_(other.slot_),
        probe_(other.probe_), degraded_(other.degraded_),
        route_(other.route_) {}
  BreakerGate& operator=(BreakerGate&&) = delete;

  ~BreakerGate() {
    if (engine_ != nullptr) {
      try {
        engine_->record_breaker(slot_, degraded_, probe_);
      } catch (...) {
        // Only the journal line can be lost here (bad_alloc while the
        // ledger keeps it in memory): the slot transition is applied
        // first, and a throw from a destructor would end the process.
      }
    }
  }

  /// BreakerOpen when the class is served on the reference path.
  DegradeEvent route() const noexcept { return route_; }
  void settle(bool degraded) noexcept { degraded_ = degraded; }

private:
  Engine* engine_ = nullptr; ///< null: nothing to record
  std::size_t slot_ = 0;
  bool probe_ = false;
  bool degraded_ = true;
  DegradeEvent route_ = DegradeEvent::None;
};

/// Transient-retry state of one call (DESIGN.md section 11.4).
struct Engine::Retry {
  int attempt = 1;
  std::chrono::nanoseconds delay{0};
  std::chrono::nanoseconds cap{0};
};

template <class OpT>
Engine::BreakerGate Engine::open_gate(const typename OpT::Shape& shape) {
  if (!breaker_.enabled()) {
    return BreakerGate();
  }
  const std::size_t slot = class_slot<OpT>(shape);
  switch (breaker_.admit(slot)) {
  case resilience::BreakerDecision::RefRoute:
    return BreakerGate(nullptr, slot, false, DegradeEvent::BreakerOpen);
  case resilience::BreakerDecision::Probe:
    try {
      IATF_FAULT_POINT("resilience.probe", ::iatf::Status::Internal);
    } catch (...) {
      // A failed probe re-opens the slot; the call is still served.
      return BreakerGate(this, slot, true, DegradeEvent::BreakerOpen);
    }
    return BreakerGate(this, slot, true, DegradeEvent::None);
  case resilience::BreakerDecision::Allow:
    break;
  }
  return BreakerGate(this, slot, false, DegradeEvent::None);
}

template <class OpT>
bool Engine::dispatchable(const typename OpT::Plan& plan) {
  if constexpr (OpT::tiled) {
    return !kernel_verification() ||
           ensure_verified<typename OpT::value_type, OpT::bytes>(plan);
  } else {
    return true;
  }
}

bool Engine::retry_after(DegradeEvent event, Retry& retry,
                         const Deadline* deadline) {
  const bool transient = event == DegradeEvent::AllocFailure ||
                         event == DegradeEvent::WorkerFailure;
  const int max_attempts =
      std::max(1, retry_attempts_.load(std::memory_order_relaxed));
  if (!transient || retry.attempt >= max_attempts ||
      (deadline != nullptr && deadline->expired())) {
    return false;
  }
  if (retry.attempt == 1) {
    retry.delay =
        std::chrono::nanoseconds(retry_base_ns_.load(std::memory_order_relaxed));
    retry.cap = retry.delay * 64;
  }
  ++retry.attempt;
  const std::uint64_t seq = retries_.fetch_add(1, std::memory_order_relaxed);
  backoff_sleep(
      resilience::jittered_backoff(
          retry.delay, retry_seed_.load(std::memory_order_relaxed), seq),
      deadline);
  retry.delay = std::min(retry.delay * 2, retry.cap);
  return true;
}

void Engine::note_degraded(std::uint64_t lanes, bool ref_routed) noexcept {
  degraded_calls_.fetch_add(1, std::memory_order_relaxed);
  fallback_lanes_.fetch_add(lanes, std::memory_order_relaxed);
  if (ref_routed) {
    ref_routed_calls_.fetch_add(1, std::memory_order_relaxed);
  }
}

template <class OpT>
BatchHealth Engine::ref_route(const OpT& op, DegradeEvent event) {
  const BatchHealth health = detail::ref_all(op, event, nullptr);
  note_degraded(static_cast<std::uint64_t>(health.fallback),
                /*ref_routed=*/true);
  return health;
}

// --- The single-call driver ------------------------------------------------

template <class OpT> BatchHealth Engine::run_call(const OpT& op) {
  note_width_call(OpT::bytes);
  const CallContext ctx(*this);
  const Admission admission(*this, ctx.deadline());
  try {
    if (admission.ref_route()) {
      return ref_route(op, DegradeEvent::Overloaded);
    }
    return call_core(op, ctx);
  } catch (const Error& e) {
    if (e.status() == Status::Timeout) {
      timeout_calls_.fetch_add(1, std::memory_order_relaxed);
    }
    throw;
  }
}

template <class OpT>
BatchHealth Engine::call_core(const OpT& op, const CallContext& ctx) {
  using R = real_t<typename OpT::value_type>;
  BreakerGate gate = open_gate<OpT>(op.shape);
  if (gate.route() != DegradeEvent::None) {
    return ref_route(op, gate.route());
  }
  const bool guarded = ctx.policy != ExecPolicy::Fast;
  const bool fallback = ctx.policy == ExecPolicy::Fallback;
  op.prepare();
  // The fast path overwrites the in/out operand, so a retry or a lane
  // repair needs its pre-call values. Snapshot only when allowed to
  // repair; Fast allocates nothing here.
  std::vector<R> snapshot;
  if (fallback) {
    snapshot = detail::snapshot_of(op.inout());
  }
  std::optional<HealthRecorder> rec;
  if (guarded) {
    rec.emplace(op.shape.batch);
  }
  Retry retry;
  for (;;) {
    try {
      const auto plan = plan_for<OpT>(op.shape);
      if (!dispatchable<OpT>(*plan)) {
        // Detected before execution: the operands still hold the input.
        return ref_route(op, DegradeEvent::QuarantinedKernel);
      }
      op.execute(*plan, ctx.pool, rec ? &*rec : nullptr, ctx.deadline());
      break;
    } catch (...) {
      if (!fallback) {
        throw; // Fast/Check: failures still propagate
      }
      // rethrows InvalidArg and Timeout
      const DegradeEvent event = detail::classify_failure();
      if (retry_after(event, retry, ctx.deadline())) {
        detail::restore(op.inout(), snapshot);
        rec.emplace(op.shape.batch);
        continue;
      }
      const BatchHealth health = detail::ref_all(op, event, &snapshot);
      note_degraded(static_cast<std::uint64_t>(health.fallback), false);
      return health;
    }
  }

  BatchHealth health;
  health.batch = op.shape.batch;
  if (guarded) {
    op.scan(*rec);
    detail::settle_hazards(op, *rec, fallback ? &snapshot : nullptr,
                           health);
    if (health.fallback > 0) {
      note_degraded(static_cast<std::uint64_t>(health.fallback), false);
    }
  }
  gate.settle(health.events != DegradeEvent::None);
  return health;
}

// --- The grouped driver ----------------------------------------------------

template <class OpT>
std::vector<BatchHealth>
Engine::run_grouped(std::span<const typename OpT::Segment> segments) {
  using R = real_t<typename OpT::value_type>;
  grouped_calls_.fetch_add(1, std::memory_order_relaxed);
  note_width_call(OpT::bytes);
  const std::size_t count = segments.size();
  std::vector<BatchHealth> healths(count);
  if (count == 0) {
    return healths;
  }
  std::vector<OpT> ops;
  std::vector<sched::ClassKey> keys;
  ops.reserve(count);
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ops.push_back(OpT::make(segments[i]));
    keys.push_back(OpT::class_key(ops[i].shape));
    healths[i].batch = ops[i].shape.batch;
  }

  const CallContext ctx(*this);
  const Admission admission(*this, ctx.deadline());
  try {
    if (admission.ref_route()) {
      std::uint64_t lanes = 0;
      for (std::size_t i = 0; i < count; ++i) {
        healths[i] = detail::ref_all(ops[i], DegradeEvent::Overloaded,
                                     nullptr);
        lanes += static_cast<std::uint64_t>(healths[i].fallback);
      }
      note_degraded(lanes, /*ref_routed=*/true);
      return healths;
    }

    const bool guarded = ctx.policy != ExecPolicy::Fast;
    const bool fallback = ctx.policy == ExecPolicy::Fallback;
    // Snapshots and recorders are captured BEFORE any binning/planning
    // so the whole-call fallback below can restore even when the
    // scheduler or the planner throws.
    std::vector<std::vector<R>> snapshots(count);
    std::vector<std::optional<HealthRecorder>> recs(count);
    for (std::size_t i = 0; i < count; ++i) {
      if (guarded) {
        recs[i].emplace(ops[i].shape.batch);
      }
      if (fallback) {
        snapshots[i] = detail::snapshot_of(ops[i].inout());
      }
    }

    std::vector<std::shared_ptr<const typename OpT::Plan>> plans(count);
    // Per-descriptor-class degradation routing: BreakerOpen or
    // QuarantinedKernel sends just that class to the reference path while
    // the other classes keep their fast path.
    std::vector<DegradeEvent> routed(count, DegradeEvent::None);
    std::vector<sched::SizeClass> classes;
    std::vector<BreakerGate> gates; ///< gates[c] gates classes[c]
    std::size_t next_class = 0;
    bool resolved = false;
    Retry retry;
    for (;;) {
      try {
        if (!resolved) {
          // One plan resolution per distinct descriptor; segments in the
          // same size class share the shared_ptr, and single-flight
          // collapses concurrent cold misses exactly as for the
          // fixed-size path. Resumable across retries: every class opens
          // its breaker gate exactly once.
          if (classes.empty()) {
            classes = sched::bin_by_descriptor(keys);
            gates.reserve(classes.size());
          }
          while (next_class < classes.size()) {
            const sched::SizeClass& cls = classes[next_class];
            const auto& shape = ops[cls.segments.front()].shape;
            if (gates.size() == next_class) {
              gates.push_back(open_gate<OpT>(shape));
            }
            DegradeEvent route = gates[next_class].route();
            if (route == DegradeEvent::None) {
              auto plan = plan_for<OpT>(shape);
              if (dispatchable<OpT>(*plan)) {
                for (const std::size_t idx : cls.segments) {
                  plans[idx] = plan;
                }
              } else {
                route = DegradeEvent::QuarantinedKernel;
              }
            }
            for (const std::size_t idx : cls.segments) {
              routed[idx] = route;
            }
            if (++next_class == classes.size()) {
              record_grouped_plans(classes.size());
            }
          }
          // Ref-route the degraded classes up front; they are independent
          // of the fast-path segments below.
          std::uint64_t lanes = 0;
          for (std::size_t i = 0; i < count; ++i) {
            if (routed[i] != DegradeEvent::None) {
              healths[i] = detail::ref_all(ops[i], routed[i], nullptr);
              lanes += static_cast<std::uint64_t>(healths[i].fallback);
            }
          }
          if (lanes > 0) {
            note_degraded(lanes, /*ref_routed=*/true);
          }
          resolved = true;
        }

        if (ctx.pool != nullptr) {
          // Interleave per-segment batch-slice work items round-robin
          // across segments so the pool alternates between size classes.
          const index_t grain_env = tune::env_group_grain();
          std::vector<sched::SegmentExtent> extents(count);
          for (std::size_t i = 0; i < count; ++i) {
            if (routed[i] != DegradeEvent::None) {
              continue; // already served on the reference path
            }
            extents[i].groups = ops[i].inout().groups();
            const index_t tuned =
                grain_env > 0 ? grain_env : plans[i]->chunk_groups();
            extents[i].item_groups = sched::item_granularity(
                extents[i].groups, plans[i]->slice_groups(), tuned,
                static_cast<index_t>(ctx.pool->size()));
            if (extents[i].groups == 0) {
              // No work item will touch this segment: validate it here so
              // caller bugs surface identically in both execution modes.
              ops[i].execute(*plans[i], nullptr, nullptr, nullptr);
            }
          }
          const std::vector<sched::WorkItem> items =
              sched::interleave_slices(extents);
          ctx.pool->parallel_for(
              0, static_cast<index_t>(items.size()),
              [&](index_t ib, index_t ie) {
                for (index_t ii = ib; ii < ie; ++ii) {
                  const sched::WorkItem& it =
                      items[static_cast<std::size_t>(ii)];
                  auto& rec = recs[it.segment];
                  ops[it.segment].execute_range(
                      *plans[it.segment], it.g_begin, it.g_end,
                      rec ? &*rec : nullptr, ctx.deadline());
                }
              },
              /*grain=*/1, ctx.deadline());
        } else {
          for (std::size_t i = 0; i < count; ++i) {
            if (routed[i] == DegradeEvent::None) {
              ops[i].execute(*plans[i], nullptr,
                             recs[i] ? &*recs[i] : nullptr, ctx.deadline());
            }
          }
        }
        break;
      } catch (...) {
        if (!fallback) {
          throw; // Fast/Check: failures still propagate
        }
        // rethrows InvalidArg and Timeout
        const DegradeEvent event = detail::classify_failure();
        if (retry_after(event, retry, ctx.deadline())) {
          // Restore whatever may hold partial output: every fast-path
          // segment, and routed ones not yet committed by `resolved`.
          for (std::size_t i = 0; i < count; ++i) {
            if (!resolved || routed[i] == DegradeEvent::None) {
              detail::restore(ops[i].inout(), snapshots[i]);
              if (recs[i]) {
                recs[i].emplace(ops[i].shape.batch);
              }
            }
          }
          continue;
        }
        for (const OpT& op : ops) {
          op.validate();
        }
        // Any segment may hold partial fast-path output; restore and
        // recompute every lane of every segment on the reference path.
        std::uint64_t lanes = 0;
        for (std::size_t i = 0; i < count; ++i) {
          const DegradeEvent routed_event = healths[i].events;
          healths[i] = detail::ref_all(ops[i], event, &snapshots[i]);
          healths[i].events |= routed_event;
          lanes += static_cast<std::uint64_t>(healths[i].fallback);
        }
        note_degraded(lanes, /*ref_routed=*/false);
        return healths;
      }
    }

    if (guarded) {
      std::uint64_t lanes = 0;
      for (std::size_t i = 0; i < count; ++i) {
        if (routed[i] != DegradeEvent::None) {
          continue; // reference results; nothing to scan or repair
        }
        detail::settle_hazards(ops[i], *recs[i],
                               fallback ? &snapshots[i] : nullptr,
                               healths[i]);
        lanes += static_cast<std::uint64_t>(healths[i].fallback);
      }
      if (lanes > 0) {
        note_degraded(lanes, /*ref_routed=*/false);
      }
    }
    for (std::size_t c = 0; c < classes.size(); ++c) {
      bool degraded = false;
      for (const std::size_t idx : classes[c].segments) {
        degraded = degraded || healths[idx].events != DegradeEvent::None;
      }
      gates[c].settle(degraded);
    }
    return healths;
  } catch (const Error& e) {
    if (e.status() == Status::Timeout) {
      timeout_calls_.fetch_add(1, std::memory_order_relaxed);
    }
    throw;
  }
}

// --- Public compute entry points: thin wrappers over the drivers ----------

template <class T, int Bytes>
BatchHealth Engine::gemm(Op op_a, Op op_b, T alpha, const CompactBuffer<T>& a,
                         const CompactBuffer<T>& b, T beta,
                         CompactBuffer<T>& c) {
  return run_call(
      detail::GemmOp<T, Bytes>::make(op_a, op_b, alpha, a, b, beta, c));
}

template <class T, int Bytes>
BatchHealth Engine::trsm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                         const CompactBuffer<T>& a, CompactBuffer<T>& b) {
  return run_call(
      detail::TrsmOp<T, Bytes>::make(side, uplo, op_a, diag, alpha, a, b));
}

template <class T, int Bytes>
std::vector<BatchHealth>
Engine::gemm_grouped(std::span<const sched::GemmSegment<T>> segments) {
  return run_grouped<detail::GemmOp<T, Bytes>>(segments);
}

template <class T, int Bytes>
std::vector<BatchHealth>
Engine::trsm_grouped(std::span<const sched::TrsmSegment<T>> segments) {
  return run_grouped<detail::TrsmOp<T, Bytes>>(segments);
}

// The packed-handle overloads run the buffer pipelines on the handle's
// storage: same plan-cache entry, bit-identical results (DESIGN.md
// section 13.2), plus reuse accounting and the output epoch bump.

template <class T, int Bytes>
BatchHealth Engine::gemm(Op op_a, Op op_b, T alpha,
                         const factor::PackedHandle<T>& a,
                         const factor::PackedHandle<T>& b, T beta,
                         factor::PackedHandle<T>& c) {
  IATF_CHECK(a.valid() && b.valid() && c.valid(),
             "gemm: invalid packed handle");
  packed_reuse_hits_.fetch_add(3, std::memory_order_relaxed);
  const BatchHealth health = gemm<T, Bytes>(op_a, op_b, alpha, a.buffer(),
                                            b.buffer(), beta, c.buffer());
  c.bump_epoch();
  return health;
}

template <class T, int Bytes>
BatchHealth Engine::trsm(Side side, Uplo uplo, Op op_a, Diag diag, T alpha,
                         const factor::PackedHandle<T>& a,
                         factor::PackedHandle<T>& b) {
  IATF_CHECK(a.valid() && b.valid(), "trsm: invalid packed handle");
  packed_reuse_hits_.fetch_add(2, std::memory_order_relaxed);
  const BatchHealth health = trsm<T, Bytes>(side, uplo, op_a, diag, alpha,
                                            a.buffer(), b.buffer());
  b.bump_epoch();
  return health;
}

template <class T, int Bytes>
BatchHealth Engine::potrf_batch(CompactBuffer<T>& a) {
  return run_call(detail::FactorOp<T, Bytes>::make(
      factor::FactorOp::Potrf, Uplo::Lower, Diag::NonUnit, a));
}

template <class T, int Bytes>
BatchHealth Engine::getrf_nopiv_batch(CompactBuffer<T>& a) {
  return run_call(detail::FactorOp<T, Bytes>::make(
      factor::FactorOp::GetrfNp, Uplo::Lower, Diag::NonUnit, a));
}

template <class T, int Bytes>
BatchHealth Engine::trtri_batch(Uplo uplo, Diag diag, CompactBuffer<T>& a) {
  return run_call(detail::FactorOp<T, Bytes>::make(factor::FactorOp::Trtri,
                                                   uplo, diag, a));
}

template <class T, int Bytes>
BatchHealth Engine::potrf_batch(factor::PackedHandle<T>& a) {
  IATF_CHECK(a.valid(), "potrf_batch: invalid packed handle");
  packed_reuse_hits_.fetch_add(1, std::memory_order_relaxed);
  const BatchHealth health = potrf_batch<T, Bytes>(a.buffer());
  a.bump_epoch();
  return health;
}

template <class T, int Bytes>
BatchHealth Engine::getrf_nopiv_batch(factor::PackedHandle<T>& a) {
  IATF_CHECK(a.valid(), "getrf_nopiv_batch: invalid packed handle");
  packed_reuse_hits_.fetch_add(1, std::memory_order_relaxed);
  const BatchHealth health = getrf_nopiv_batch<T, Bytes>(a.buffer());
  a.bump_epoch();
  return health;
}

template <class T, int Bytes>
BatchHealth Engine::trtri_batch(Uplo uplo, Diag diag,
                                factor::PackedHandle<T>& a) {
  IATF_CHECK(a.valid(), "trtri_batch: invalid packed handle");
  packed_reuse_hits_.fetch_add(1, std::memory_order_relaxed);
  const BatchHealth health = trtri_batch<T, Bytes>(uplo, diag, a.buffer());
  a.bump_epoch();
  return health;
}

template <class T, int Bytes>
std::vector<BatchHealth>
Engine::factor_grouped(std::span<const sched::FactorSegment<T>> segments) {
  using FactorOpT = detail::FactorOp<T, Bytes>;
  grouped_calls_.fetch_add(1, std::memory_order_relaxed);
  note_width_call(Bytes);
  const std::size_t count = segments.size();
  std::vector<BatchHealth> healths(count);
  if (count == 0) {
    return healths;
  }
  std::vector<FactorOpT> ops;
  std::vector<sched::ClassKey> keys;
  ops.reserve(count);
  keys.reserve(count);
  for (const sched::FactorSegment<T>& seg : segments) {
    ops.push_back(FactorOpT::make(seg));
    keys.push_back(FactorOpT::class_key(ops.back().shape));
  }

  const CallContext ctx(*this);
  const Admission admission(*this, ctx.deadline());
  try {
    if (admission.ref_route()) {
      for (std::size_t i = 0; i < count; ++i) {
        healths[i] = ref_route(ops[i], DegradeEvent::Overloaded);
      }
      return healths;
    }
    // Execute class by class (first-appearance order), so each distinct
    // descriptor resolves its plan once and the segments sharing it run
    // back to back against the warm cache entry. The single deadline
    // spans the whole grouped call.
    const std::vector<sched::SizeClass> classes =
        sched::bin_by_descriptor(keys);
    record_grouped_plans(classes.size());
    for (const sched::SizeClass& cls : classes) {
      for (const std::size_t idx : cls.segments) {
        healths[idx] = call_core(ops[idx], ctx);
      }
    }
    return healths;
  } catch (const Error& e) {
    if (e.status() == Status::Timeout) {
      timeout_calls_.fetch_add(1, std::memory_order_relaxed);
    }
    throw;
  }
}

void Engine::record_grouped_plans(std::size_t distinct) noexcept {
  // Bucket upper bounds: 1, 2, 4, 8, inf (EngineStats doc).
  std::size_t bucket = 4;
  if (distinct <= 1) {
    bucket = 0;
  } else if (distinct == 2) {
    bucket = 1;
  } else if (distinct <= 4) {
    bucket = 2;
  } else if (distinct <= 8) {
    bucket = 3;
  }
  grouped_plan_hist_[bucket].fetch_add(1, std::memory_order_relaxed);
}

plan::PlanTuning Engine::resolve_tuning(const TuningConfig& config,
                                        const tune::TuneKey& key,
                                        bool* from_table) const {
  *from_table = false;
  if (config.table != nullptr) {
    if (const tune::TuneRecord* rec = config.table->lookup(key)) {
      *from_table = true;
      return rec->tuning();
    }
  }
  if (config.has_manual) {
    return config.manual;
  }
  // Re-read per plan-cache miss: cheap, and it keeps the environment
  // overrides testable after clear_plan_cache().
  return tune::env_plan_tuning();
}

void Engine::reconfigure(std::shared_ptr<TuningConfig> next) {
  std::lock_guard<std::mutex> lock(config_mu_);
  // Ordering matters: bump the generation first (gating out every build
  // that resolved against the outgoing config), then wipe the shards, then
  // publish the new config. A build that loads the new config necessarily
  // inserts after the wipe; a build holding the old config sees a
  // generation mismatch and is dropped instead of repopulating the fresh
  // cache with stale tuning.
  next->generation =
      generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> sl(shard.mu);
    shard.snapshot.store(std::shared_ptr<const PlanMap>(),
                         std::memory_order_release);
  }
  tuning_.store(std::shared_ptr<const TuningConfig>(std::move(next)),
                std::memory_order_release);
  tuned_.store(0, std::memory_order_relaxed);
}

void Engine::set_tuning_table(
    std::shared_ptr<const tune::TuningTable> table) {
  const auto current = tuning_.load(std::memory_order_acquire);
  auto next = std::make_shared<TuningConfig>(*current);
  next->table = std::move(table);
  reconfigure(std::move(next));
}

std::shared_ptr<const tune::TuningTable> Engine::tuning_table() const {
  return tuning_.load(std::memory_order_acquire)->table;
}

void Engine::set_plan_tuning(const plan::PlanTuning& tuning) {
  const auto current = tuning_.load(std::memory_order_acquire);
  auto next = std::make_shared<TuningConfig>(*current);
  next->manual = tuning;
  next->has_manual = true;
  reconfigure(std::move(next));
}

void Engine::clear_plan_tuning() {
  const auto current = tuning_.load(std::memory_order_acquire);
  auto next = std::make_shared<TuningConfig>(*current);
  next->manual = plan::PlanTuning{};
  next->has_manual = false;
  reconfigure(std::move(next));
}

plan::PlanTuning Engine::plan_tuning() const {
  const auto config = tuning_.load(std::memory_order_acquire);
  return config->has_manual ? config->manual : plan::PlanTuning{};
}

void Engine::set_plan_cache_capacity(std::size_t capacity) {
  IATF_CHECK(capacity >= 1, "engine: plan cache capacity must be >= 1");
  capacity_.store(capacity, std::memory_order_relaxed);
  const std::size_t cap = shard_capacity();
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto old = shard.snapshot.load(std::memory_order_acquire);
    if (!old || old->size() <= cap) {
      continue;
    }
    auto next = std::make_shared<PlanMap>(*old);
    evict_to_capacity(*next, cap);
    shard.snapshot.store(std::shared_ptr<const PlanMap>(std::move(next)),
                         std::memory_order_release);
  }
}

std::size_t Engine::plan_cache_size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    if (auto map = shard.snapshot.load(std::memory_order_acquire)) {
      total += map->size();
    }
  }
  return total;
}

void Engine::clear_plan_cache() {
  const auto current = tuning_.load(std::memory_order_acquire);
  reconfigure(std::make_shared<TuningConfig>(*current));
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  builds_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

EngineStats Engine::stats() const {
  EngineStats s;
  s.plan_cache_size = plan_cache_size();
  s.plan_cache_capacity = plan_cache_capacity();
  s.hits = plan_cache_hits();
  s.misses = plan_cache_misses();
  s.builds = plan_cache_builds();
  s.tuned = plan_cache_tuned();
  s.evictions = plan_cache_evictions();
  s.degraded_calls = static_cast<std::size_t>(
      degraded_calls_.load(std::memory_order_relaxed));
  s.fallback_lanes = static_cast<std::size_t>(
      fallback_lanes_.load(std::memory_order_relaxed));
  s.timeout_calls = static_cast<std::size_t>(
      timeout_calls_.load(std::memory_order_relaxed));
  s.grouped_calls = static_cast<std::size_t>(
      grouped_calls_.load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < EngineStats::kGroupedPlanBuckets; ++i) {
    s.distinct_plans_per_call[i] = static_cast<std::size_t>(
        grouped_plan_hist_[i].load(std::memory_order_relaxed));
  }
  s.shed_calls = static_cast<std::size_t>(
      shed_calls_.load(std::memory_order_relaxed));
  s.ref_routed_calls = static_cast<std::size_t>(
      ref_routed_calls_.load(std::memory_order_relaxed));
  s.retries =
      static_cast<std::size_t>(retries_.load(std::memory_order_relaxed));
  s.packed_reuse_hits = static_cast<std::size_t>(
      packed_reuse_hits_.load(std::memory_order_relaxed));
  s.packed_repacks = static_cast<std::size_t>(
      packed_repacks_.load(std::memory_order_relaxed));
  s.verified_kernels = guard_.verified_count();
  s.quarantined_kernels = guard_.quarantined_count();
  s.breaker_transitions = breaker_.summary().transitions;
  s.width16_calls = static_cast<std::size_t>(
      width_calls_[0].load(std::memory_order_relaxed));
  s.width32_calls = static_cast<std::size_t>(
      width_calls_[1].load(std::memory_order_relaxed));
  s.width64_calls = static_cast<std::size_t>(
      width_calls_[2].load(std::memory_order_relaxed));
  return s;
}

void Engine::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  builds_.store(0, std::memory_order_relaxed);
  tuned_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  degraded_calls_.store(0, std::memory_order_relaxed);
  fallback_lanes_.store(0, std::memory_order_relaxed);
  timeout_calls_.store(0, std::memory_order_relaxed);
  grouped_calls_.store(0, std::memory_order_relaxed);
  for (auto& bucket : grouped_plan_hist_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  shed_calls_.store(0, std::memory_order_relaxed);
  ref_routed_calls_.store(0, std::memory_order_relaxed);
  retries_.store(0, std::memory_order_relaxed);
  packed_reuse_hits_.store(0, std::memory_order_relaxed);
  packed_repacks_.store(0, std::memory_order_relaxed);
  for (auto& w : width_calls_) {
    w.store(0, std::memory_order_relaxed);
  }
}

EngineHealth Engine::health() const {
  EngineHealth h;
  h.verified_kernels = guard_.verified_count();
  h.quarantined_kernels = guard_.quarantined_count();
  const resilience::CircuitBreaker::Summary s = breaker_.summary();
  h.breaker_closed = s.closed;
  h.breaker_open = s.open;
  h.breaker_half_open = s.half_open;
  h.breaker_transitions = s.transitions;
  h.inflight = inflight_.load(std::memory_order_relaxed);
  h.max_inflight = max_inflight_.load(std::memory_order_relaxed);
  h.shed_calls = static_cast<std::size_t>(
      shed_calls_.load(std::memory_order_relaxed));
  h.ref_routed_calls = static_cast<std::size_t>(
      ref_routed_calls_.load(std::memory_order_relaxed));
  h.retries =
      static_cast<std::size_t>(retries_.load(std::memory_order_relaxed));
  return h;
}

Engine::Admit Engine::admit_call(const Deadline* deadline) {
  const auto try_acquire = [this]() -> bool {
    const std::size_t max = max_inflight_.load(std::memory_order_relaxed);
    std::size_t cur = inflight_.load(std::memory_order_relaxed);
    for (;;) {
      if (max != 0 && cur >= max) {
        return false;
      }
      if (inflight_.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_relaxed)) {
        return true;
      }
    }
  };
  if (try_acquire()) {
    return Admit::Run;
  }
  switch (overload_policy()) {
  case resilience::OverloadPolicy::ShedNewest:
    // The call never enters the engine: no inflight slot is taken, so
    // the caller must NOT pair this with release_call(). Engine::gemm
    // et al. construct their Release guard only after admit_call
    // returns, which gives exactly that pairing.
    shed_calls_.fetch_add(1, std::memory_order_relaxed);
    throw OverloadError(inflight_.load(std::memory_order_relaxed),
                        max_inflight_.load(std::memory_order_relaxed));
  case resilience::OverloadPolicy::DegradeToRef:
    inflight_.fetch_add(1, std::memory_order_relaxed);
    return Admit::RefRoute;
  case resilience::OverloadPolicy::Block:
    break;
  }
  std::unique_lock<std::mutex> lock(admit_mu_);
  for (;;) {
    if (try_acquire()) {
      return Admit::Run;
    }
    if (deadline != nullptr) {
      if (deadline->expired() ||
          admit_cv_.wait_until(lock, deadline->at) ==
              std::cv_status::timeout) {
        if (try_acquire()) {
          return Admit::Run;
        }
        // Counted here: the caller's Timeout accounting lives inside
        // its try block, which the call never reached.
        timeout_calls_.fetch_add(1, std::memory_order_relaxed);
        throw TimeoutError(0, 1);
      }
    } else {
      // Bounded wait instead of a bare wait(): a release_call or
      // set_max_inflight racing the predicate check can then delay the
      // re-check by at most one tick, never deadlock it.
      admit_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
}

void Engine::release_call() noexcept {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  if (max_inflight_.load(std::memory_order_relaxed) != 0) {
    // Empty critical section orders the decrement before any blocked
    // admitter's predicate re-check (classic lost-wakeup guard).
    { std::lock_guard<std::mutex> lock(admit_mu_); }
    admit_cv_.notify_one();
  }
}

template <class T, int Bytes, class Plan>
bool Engine::ensure_verified(const Plan& plan) {
  switch (plan.verify_state()) {
  case resilience::PlanVerify::Verified:
    return true;
  case resilience::PlanVerify::Quarantined:
    return false;
  case resilience::PlanVerify::Untested:
    break;
  }
  // First dispatch of this plan object: canary every still-untested
  // kernel it references. Concurrent first dispatches may both run the
  // same canary; the ledger transitions are idempotent, so the race only
  // costs a duplicate micro-canary, never an inconsistent verdict.
  bool ok = true;
  for (const resilience::KernelUse& use : plan.kernels_used()) {
    const resilience::KernelId id{use.kind, dtype_tag<T>(), Bytes, use.m,
                                  use.n};
    switch (guard_.state(id)) {
    case resilience::KernelState::Verified:
      continue;
    case resilience::KernelState::Quarantined:
      ok = false;
      continue;
    case resilience::KernelState::Untested:
      break;
    }
    if (verify_kernel<T, Bytes>(use)) {
      guard_.mark_verified(id);
    } else {
      guard_.mark_quarantined(id);
      journal_quarantine(id);
      ok = false;
    }
  }
  plan.set_verify_state(ok ? resilience::PlanVerify::Verified
                           : resilience::PlanVerify::Quarantined);
  if (!ok) {
    invalidate_quarantined_plans();
  }
  return ok;
}

template <class T, int Bytes>
bool Engine::verify_kernel(const resilience::KernelUse& use) {
  try {
    // The verification itself is a fault site (tests quarantine a chosen
    // kernel by arming it). Everything below runs with unrelated
    // injection suppressed: an armed "alloc" fault meant for the call
    // under test must be neither consumed by the canary nor allowed to
    // quarantine a good kernel.
    IATF_FAULT_POINT("resilience.verify", ::iatf::Status::Internal);
    fault::SuppressionScope suppress;
    switch (use.kind) {
    case 'g':
      return run_gemm_canary<T, Bytes>(use);
    case 't':
    case 'r':
      return run_trsm_canary<T, Bytes>(use);
    default:
      return true;
    }
  } catch (...) {
    return false; // a throwing kernel is as quarantined as a wrong one
  }
}

template <class T, int Bytes>
bool Engine::run_gemm_canary(const resilience::KernelUse& use) {
  using PlanT = plan::GemmPlan<T, Bytes>;
  GemmShape shape;
  shape.m = use.m;
  shape.n = use.n;
  shape.k = 3;
  shape.op_a = Op::NoTrans;
  shape.op_b = Op::NoTrans;
  shape.batch = PlanT::pack_width();
  // Built directly, not through the cache: canaries leave the hit/miss/
  // build counters untouched. Default tuning on an (m, n) within the
  // register-budget caps yields exactly one tile -- the kernel under
  // test, alone.
  const PlanT plan(shape, cache_, plan::PlanTuning{});
  const index_t pw = PlanT::pack_width();
  CompactBuffer<T> a(shape.m, shape.k, shape.batch, pw);
  CompactBuffer<T> b(shape.k, shape.n, shape.batch, pw);
  CompactBuffer<T> c(shape.m, shape.n, shape.batch, pw);
  fill_canary(a, 1);
  fill_canary(b, 2);
  fill_canary(c, 3);
  const index_t lda = std::max<index_t>(a.rows(), 1);
  const index_t ldb = std::max<index_t>(b.rows(), 1);
  const index_t ldc = std::max<index_t>(c.rows(), 1);
  // Pre-call C per lane, for the beta term of the reference result.
  std::vector<std::vector<T>> c0(static_cast<std::size_t>(shape.batch));
  for (index_t lane = 0; lane < shape.batch; ++lane) {
    auto& lane0 = c0[static_cast<std::size_t>(lane)];
    lane0.resize(static_cast<std::size_t>(c.rows() * c.cols()));
    c.export_colmajor(lane, lane0.data(), ldc);
  }
  const T alpha = T(0.5);
  const T beta = T(0.25);
  plan.execute(a, b, c, alpha, beta, nullptr, nullptr);

  std::vector<T> ta(static_cast<std::size_t>(a.rows() * a.cols()));
  std::vector<T> tb(static_cast<std::size_t>(b.rows() * b.cols()));
  std::vector<T> got(static_cast<std::size_t>(c.rows() * c.cols()));
  for (index_t lane = 0; lane < shape.batch; ++lane) {
    a.export_colmajor(lane, ta.data(), lda);
    b.export_colmajor(lane, tb.data(), ldb);
    c.export_colmajor(lane, got.data(), ldc);
    std::vector<T>& want = c0[static_cast<std::size_t>(lane)];
    ref::gemm(Op::NoTrans, Op::NoTrans, shape.m, shape.n, shape.k, alpha,
              ta.data(), lda, tb.data(), ldb, beta, want.data(), ldc);
    if (!canary_lane_matches(got, want)) {
      return false;
    }
  }
  return true;
}

template <class T, int Bytes>
bool Engine::run_trsm_canary(const resilience::KernelUse& use) {
  using PlanT = plan::TrsmPlan<T, Bytes>;
  // Attribution guard for rect kernels: the blocked canary below
  // exercises tri(m, n) too, so a broken tri partner would condemn an
  // innocent rect. Canary the tri first; if IT is broken, report the
  // rect as passing -- every plan dispatching rect(m, n) also dispatches
  // tri(m, n), whose own quarantine already taints the plan.
  if (use.kind == 'r' &&
      !run_trsm_canary<T, Bytes>(resilience::KernelUse{'t', use.m, use.n})) {
    return true;
  }
  TrsmShape shape;
  shape.side = Side::Left;
  shape.uplo = Uplo::Lower;
  shape.op_a = Op::NoTrans;
  shape.diag = Diag::NonUnit;
  shape.n = use.n;
  plan::PlanTuning tuning;
  if (use.kind == 'r') {
    // Two block rows of the rect's row size: the plan solves
    // tri(m, n) on the diagonal block and updates the second block row
    // through rect(m, n).
    shape.m = 2 * use.m;
    tuning.mc_cap = use.m;
    tuning.nc_cap = use.n;
  } else {
    shape.m = use.m; // small path: one triangular kernel, no blocking
  }
  shape.batch = PlanT::pack_width();
  const PlanT plan(shape, cache_, tuning);
  const index_t pw = PlanT::pack_width();
  CompactBuffer<T> a(shape.a_dim(), shape.a_dim(), shape.batch, pw);
  CompactBuffer<T> b(shape.m, shape.n, shape.batch, pw);
  fill_canary_triangle(a, 4);
  fill_canary(b, 5);
  const index_t lda = std::max<index_t>(a.rows(), 1);
  const index_t ldb = std::max<index_t>(b.rows(), 1);
  // Original right-hand side per lane; the plan solves in place.
  std::vector<std::vector<T>> b0(static_cast<std::size_t>(shape.batch));
  for (index_t lane = 0; lane < shape.batch; ++lane) {
    auto& lane0 = b0[static_cast<std::size_t>(lane)];
    lane0.resize(static_cast<std::size_t>(b.rows() * b.cols()));
    b.export_colmajor(lane, lane0.data(), ldb);
  }
  const T alpha = T(0.5);
  plan.execute(a, b, alpha, nullptr, nullptr);

  std::vector<T> ta(static_cast<std::size_t>(a.rows() * a.cols()));
  std::vector<T> got(static_cast<std::size_t>(b.rows() * b.cols()));
  for (index_t lane = 0; lane < shape.batch; ++lane) {
    a.export_colmajor(lane, ta.data(), lda);
    b.export_colmajor(lane, got.data(), ldb);
    std::vector<T>& want = b0[static_cast<std::size_t>(lane)];
    ref::trsm(shape.side, shape.uplo, shape.op_a, shape.diag, shape.m,
              shape.n, alpha, ta.data(), lda, want.data(), ldb);
    if (!canary_lane_matches(got, want)) {
      return false;
    }
  }
  return true;
}

void Engine::invalidate_quarantined_plans() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto old = shard.snapshot.load(std::memory_order_acquire);
    if (!old) {
      continue;
    }
    bool dirty = false;
    auto next = std::make_shared<PlanMap>();
    next->reserve(old->size());
    for (const auto& [key, entry] : *old) {
      if (guard_.any_quarantined(entry->kernels)) {
        dirty = true;
        continue; // drop: rebuilt via single-flight on the next miss
      }
      (*next)[key] = entry;
    }
    if (dirty) {
      shard.snapshot.store(std::shared_ptr<const PlanMap>(std::move(next)),
                           std::memory_order_release);
    }
  }
}

template <class T, int Bytes>
std::size_t Engine::self_test_type() {
  using Limits = kernels::KernelLimits<T>;
  std::size_t quarantined = 0;
  const auto check = [&](char kind, int m, int n) {
    const resilience::KernelId id{kind, dtype_tag<T>(), Bytes, m, n};
    switch (guard_.state(id)) {
    case resilience::KernelState::Quarantined:
      ++quarantined;
      return;
    case resilience::KernelState::Verified:
      return;
    case resilience::KernelState::Untested:
      break;
    }
    if (verify_kernel<T, Bytes>(resilience::KernelUse{kind, m, n})) {
      guard_.mark_verified(id);
    } else {
      guard_.mark_quarantined(id);
      journal_quarantine(id);
      ++quarantined;
    }
  };
  for (int m = 1; m <= Limits::gemm_max_mc; ++m) {
    for (int n = 1; n <= Limits::gemm_max_nc; ++n) {
      check('g', m, n);
    }
  }
  for (int m = 1; m <= Limits::tri_max_m; ++m) {
    for (int n = 1; n <= Limits::tri_max_nc; ++n) {
      check('t', m, n);
    }
  }
  for (int m = 1; m <= Limits::rect_max_mc; ++m) {
    for (int n = 1; n <= Limits::rect_max_nc; ++n) {
      check('r', m, n);
    }
  }
  return quarantined;
}

std::size_t Engine::self_test() {
  std::size_t quarantined = 0;
  quarantined += self_test_type<float, 16>();
  quarantined += self_test_type<double, 16>();
  quarantined += self_test_type<std::complex<float>, 16>();
  quarantined += self_test_type<std::complex<double>, 16>();
  quarantined += self_test_type<float, 32>();
  quarantined += self_test_type<double, 32>();
  quarantined += self_test_type<std::complex<float>, 32>();
  quarantined += self_test_type<std::complex<double>, 32>();
  quarantined += self_test_type<float, 64>();
  quarantined += self_test_type<double, 64>();
  quarantined += self_test_type<std::complex<float>, 64>();
  quarantined += self_test_type<std::complex<double>, 64>();
  if (quarantined > 0) {
    invalidate_quarantined_plans();
  }
  return quarantined;
}

template <class T, int Bytes>
resilience::BreakerState
Engine::gemm_breaker_state(const GemmShape& shape) const {
  return breaker_.slot_state(class_slot<detail::GemmOp<T, Bytes>>(shape));
}

template <class T, int Bytes>
resilience::BreakerState
Engine::trsm_breaker_state(const TrsmShape& shape) const {
  return breaker_.slot_state(class_slot<detail::TrsmOp<T, Bytes>>(shape));
}

// --- Crash-consistent health ledger (DESIGN.md section 14) --------------

resilience::LedgerLoad Engine::set_health_ledger(const std::string& path) {
  auto ledger = std::make_shared<resilience::HealthLedger>(path);
  const resilience::LedgerLoad result = ledger->load();
  // Replay before publishing: journaling is suspended until the new
  // ledger is installed, so replayed quarantines are not re-appended.
  bool any_quarantine = false;
  for (const resilience::LedgerRecord& rec : ledger->records()) {
    switch (rec.kind) {
    case resilience::LedgerRecord::Kind::KernelQuarantine:
      // Replay only ever quarantines -- a ledger cannot mark anything
      // Verified, so "verify never resurrects" holds across restarts.
      guard_.mark_quarantined(rec.kernel);
      any_quarantine = true;
      break;
    case resilience::LedgerRecord::Kind::BreakerTrip:
    case resilience::LedgerRecord::Kind::WatchdogReclaim:
      // Restart posture for a recently-tripped class: probe before
      // trusting the fast path again. No-op while the breaker is
      // disabled (the record stays journaled for a configured restart).
      breaker_.seed_half_open(static_cast<std::size_t>(rec.slot));
      break;
    case resilience::LedgerRecord::Kind::Degrade:
      break; // informational: stats only
    }
  }
  if (any_quarantine) {
    invalidate_quarantined_plans();
  }
  {
    std::lock_guard<std::mutex> lk(ledger_mu_);
    ledger_ = std::move(ledger);
  }
  return result;
}

std::shared_ptr<resilience::HealthLedger> Engine::health_ledger() const {
  std::lock_guard<std::mutex> lk(ledger_mu_);
  return ledger_;
}

void Engine::journal_quarantine(const resilience::KernelId& id) {
  if (auto ledger = health_ledger()) {
    resilience::LedgerRecord rec;
    rec.kind = resilience::LedgerRecord::Kind::KernelQuarantine;
    rec.kernel = id;
    ledger->append(rec);
  }
}

void Engine::journal_breaker_trip(std::size_t slot_hash) {
  if (auto ledger = health_ledger()) {
    resilience::LedgerRecord rec;
    rec.kind = resilience::LedgerRecord::Kind::BreakerTrip;
    rec.slot = static_cast<std::uint64_t>(slot_hash);
    ledger->append(rec);
  }
}

void Engine::journal_watchdog(std::size_t slot_hash) {
  if (auto ledger = health_ledger()) {
    resilience::LedgerRecord rec;
    rec.kind = resilience::LedgerRecord::Kind::WatchdogReclaim;
    rec.slot = static_cast<std::uint64_t>(slot_hash);
    ledger->append(rec);
  }
}

void Engine::journal_degrade(unsigned events) {
  if (auto ledger = health_ledger()) {
    resilience::LedgerRecord rec;
    rec.kind = resilience::LedgerRecord::Kind::Degrade;
    rec.events = events;
    ledger->append(rec);
  }
}

void Engine::record_breaker(std::size_t slot_hash, bool degraded,
                            bool probe) {
  if (breaker_.record(slot_hash, degraded, probe)) {
    journal_breaker_trip(slot_hash);
  }
}

void Engine::trip_class(std::size_t slot, int cooldown_calls) {
  if (cooldown_calls < 0) {
    cooldown_calls = breaker_.config().cooldown;
  }
  breaker_.force_open(slot, cooldown_calls);
  journal_watchdog(slot);
  journal_degrade(static_cast<unsigned>(DegradeEvent::BreakerOpen));
}

template <class T, int Bytes>
void Engine::trip_gemm_class(const GemmShape& shape, int cooldown_calls) {
  trip_class(class_slot<detail::GemmOp<T, Bytes>>(shape), cooldown_calls);
}

template <class T, int Bytes>
void Engine::trip_trsm_class(const TrsmShape& shape, int cooldown_calls) {
  trip_class(class_slot<detail::TrsmOp<T, Bytes>>(shape), cooldown_calls);
}

Engine& Engine::default_engine() {
  // Function-local static: constructed on first use, destroyed in reverse
  // construction order during static destruction. ThreadPool::global()
  // (when used) is its own function-local static whose destructor joins
  // the workers, so by the time this engine is destroyed no worker can be
  // touching a cached plan. See the header for the full teardown contract.
  static Engine engine;
  return engine;
}

#define IATF_INSTANTIATE_ENGINE(T, Bytes)                                    \
  template std::shared_ptr<const plan::GemmPlan<T, Bytes>>                  \
  Engine::plan_gemm<T, Bytes>(const GemmShape&);                            \
  template std::shared_ptr<const plan::TrsmPlan<T, Bytes>>                  \
  Engine::plan_trsm<T, Bytes>(const TrsmShape&);                            \
  template std::shared_ptr<const factor::FactorPlan<T, Bytes>>              \
  Engine::plan_factor<T, Bytes>(const factor::FactorShape&);                \
  template BatchHealth Engine::gemm<T, Bytes>(                              \
      Op, Op, T, const CompactBuffer<T>&, const CompactBuffer<T>&, T,       \
      CompactBuffer<T>&);                                                   \
  template BatchHealth Engine::gemm<T, Bytes>(                              \
      Op, Op, T, const factor::PackedHandle<T>&,                            \
      const factor::PackedHandle<T>&, T, factor::PackedHandle<T>&);         \
  template BatchHealth Engine::trsm<T, Bytes>(Side, Uplo, Op, Diag, T,      \
                                              const CompactBuffer<T>&,      \
                                              CompactBuffer<T>&);           \
  template BatchHealth Engine::trsm<T, Bytes>(                              \
      Side, Uplo, Op, Diag, T, const factor::PackedHandle<T>&,              \
      factor::PackedHandle<T>&);                                            \
  template std::vector<BatchHealth> Engine::gemm_grouped<T, Bytes>(         \
      std::span<const sched::GemmSegment<T>>);                              \
  template std::vector<BatchHealth> Engine::trsm_grouped<T, Bytes>(         \
      std::span<const sched::TrsmSegment<T>>);                              \
  template BatchHealth Engine::potrf_batch<T, Bytes>(CompactBuffer<T>&);    \
  template BatchHealth Engine::potrf_batch<T, Bytes>(                       \
      factor::PackedHandle<T>&);                                            \
  template BatchHealth Engine::getrf_nopiv_batch<T, Bytes>(                 \
      CompactBuffer<T>&);                                                   \
  template BatchHealth Engine::getrf_nopiv_batch<T, Bytes>(                 \
      factor::PackedHandle<T>&);                                            \
  template BatchHealth Engine::trtri_batch<T, Bytes>(Uplo, Diag,            \
                                                     CompactBuffer<T>&);    \
  template BatchHealth Engine::trtri_batch<T, Bytes>(                       \
      Uplo, Diag, factor::PackedHandle<T>&);                                \
  template std::vector<BatchHealth> Engine::factor_grouped<T, Bytes>(       \
      std::span<const sched::FactorSegment<T>>);                            \
  template resilience::BreakerState Engine::gemm_breaker_state<T, Bytes>(   \
      const GemmShape&) const;                                              \
  template resilience::BreakerState Engine::trsm_breaker_state<T, Bytes>(   \
      const TrsmShape&) const;                                              \
  template void Engine::trip_gemm_class<T, Bytes>(const GemmShape&, int);   \
  template void Engine::trip_trsm_class<T, Bytes>(const TrsmShape&, int);

IATF_INSTANTIATE_ENGINE(float, 16)
IATF_INSTANTIATE_ENGINE(double, 16)
IATF_INSTANTIATE_ENGINE(std::complex<float>, 16)
IATF_INSTANTIATE_ENGINE(std::complex<double>, 16)
IATF_INSTANTIATE_ENGINE(float, 32)
IATF_INSTANTIATE_ENGINE(double, 32)
IATF_INSTANTIATE_ENGINE(std::complex<float>, 32)
IATF_INSTANTIATE_ENGINE(std::complex<double>, 32)
IATF_INSTANTIATE_ENGINE(float, 64)
IATF_INSTANTIATE_ENGINE(double, 64)
IATF_INSTANTIATE_ENGINE(std::complex<float>, 64)
IATF_INSTANTIATE_ENGINE(std::complex<double>, 64)

#undef IATF_INSTANTIATE_ENGINE

} // namespace iatf
