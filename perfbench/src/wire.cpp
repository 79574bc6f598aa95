// `wire`: the `ragged` request stream through an in-process
// net::NetServer on a Unix socket, with one net::Client connection. The
// only difference from `ragged` is the codec, the CRC, the reactor's
// import and the socket, so this workload isolates `net`.
//
// Phases: a closed-loop latency phase with one request outstanding (a
// connection is a caller that waits), then a saturation phase holding
// kWireOutstanding requests (below the advertised max_outstanding).
// Threads: the client (this thread), the reactor and the dispatcher.
//
// The client never asks next_reply for a reply with a zero timeout while
// the socket still has unread bytes: with a zero timeout next_reply only
// hands out frames already decoded, so a poller that relies on it never
// reads its socket and is evicted as a slow client. await_reply() waits
// for the descriptor to be readable before pulling from it.
#include <poll.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "iatf/core/engine.hpp"
#include "iatf/net/client.hpp"
#include "iatf/net/reactor.hpp"
#include "iatf/serve/server.hpp"
#include "streams.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace std::chrono_literals;

struct Stack {
  std::unique_ptr<iatf::Engine> engine;
  std::unique_ptr<iatf::serve::Server> server;
  std::unique_ptr<iatf::net::NetServer> net;
  std::unique_ptr<iatf::net::Client> client;
  double engine_ms = 0, serve_ms = 0, warm_ms = 0;
};

/// Next reply from the server: frames already decoded first, otherwise
/// wait for the socket to be readable, then read it.
void await_reply(iatf::net::Client& c, iatf::net::Client::Reply& r) {
  while (!c.next_reply(r, 0ms)) {
    pollfd pfd{c.fd(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 10000);
    if (rc == 0) {
      throw std::runtime_error("wire: no reply within 10 s");
    }
    if (rc > 0 && c.next_reply(r, 10000ms)) {
      return;
    }
  }
}

struct Pending {
  std::uint32_t desc = 0;
  std::uint64_t index = 0;
  std::int64_t due = 0, sent = 0, submitted = 0;
};

struct Record {
  std::uint32_t desc = 0;
  std::int64_t due = 0, sent = 0, submitted = 0, done = 0;
  bool ok = false;
};

/// Client-side request loop: submits, collects replies, keeps sampled
/// outputs.
class RequestLoop : public Harvest<Record> {
public:
  RequestLoop(const RequestStream& stream, iatf::net::Client& client,
              std::uint64_t seed)
      : Harvest(stream, seed), client_(client) {}

  void submit(std::uint32_t d, std::uint64_t index, std::int64_t due) {
    Pending p{d, index, due, now_ns(), 0};
    const iatf::net::GemmSubmit msg = stream_.pool()[d].submit(
        static_cast<std::uint32_t>(index % kRaggedTenants));
    const std::uint64_t id = client_.submit_gemm(msg);
    p.submitted = now_ns();
    pending_.emplace(id, p);
  }

  /// Wait for one reply and record it.
  void collect() {
    iatf::net::Client::Reply r;
    await_reply(client_, r);
    const std::int64_t done = now_ns();
    const auto it = pending_.find(r.request_id);
    if (it == pending_.end()) {
      throw std::runtime_error("wire: reply for an unknown request");
    }
    const Pending p = it->second;
    pending_.erase(it);
    const bool ok = r.type == iatf::net::FrameType::Result && r.status == 0;
    add({p.desc, p.due, p.sent, p.submitted, done, ok}, p.desc, p.index, done,
        ok, [&](Sample& s) {
          if (stream_.pool()[p.desc].desc.dtype == 's') {
            s.f.resize(r.c.size() / sizeof(float));
            std::memcpy(s.f.data(), r.c.data(), s.f.size() * sizeof(float));
          } else {
            s.d.resize(r.c.size() / sizeof(double));
            std::memcpy(s.d.data(), r.c.data(), s.d.size() * sizeof(double));
          }
        });
  }

  std::size_t outstanding() const { return pending_.size(); }
  void finish() {
    while (!pending_.empty()) {
      collect();
    }
  }

private:
  iatf::net::Client& client_;
  std::unordered_map<std::uint64_t, Pending> pending_;
};

Stack build_stack(const RequestStream& stream, const std::string& sock,
                  std::uint64_t seed) {
  Stack s;
  const std::int64_t t0 = now_ns();
  s.engine = std::make_unique<iatf::Engine>();
  const std::int64_t t1 = now_ns();
  s.server = std::make_unique<iatf::serve::Server>(*s.engine);
  iatf::net::NetConfig cfg;
  cfg.unix_path = sock;
  s.net = std::make_unique<iatf::net::NetServer>(*s.server, cfg);
  s.net->start();
  s.client = std::make_unique<iatf::net::Client>();
  s.client->connect_unix(sock);
  const std::int64_t t2 = now_ns();
  RequestLoop warm(stream, *s.client, seed);
  for (std::uint32_t d = 0; d < stream.pool().size(); ++d) {
    warm.submit(d, d, now_ns());
    warm.collect();
  }
  const std::int64_t t3 = now_ns();
  s.engine_ms = (t1 - t0) / 1e6;
  s.serve_ms = (t2 - t1) / 1e6;
  s.warm_ms = (t3 - t2) / 1e6;
  return s;
}

} // namespace

void run_wire(const Options& opt, Report& rep, Outcome& out) {
  const OneCpu pin;
  const RequestStream proto(opt.seed);
  const std::string sock =
      opt.out_dir + "/pb-" + std::to_string(::getpid()) + ".sock";
  std::vector<Stack> setups;
  std::vector<double> setup_s, engine_ms, serve_ms, warm_ms;
  for (int r = 0; r < kSetupReps; ++r) {
    setups.clear(); // the previous stack is torn down outside the timing
    const std::int64_t t0 = now_ns();
    setups.push_back(build_stack(proto, sock, opt.seed));
    setup_s.push_back((now_ns() - t0) / 1e9);
    engine_ms.push_back(setups.back().engine_ms);
    serve_ms.push_back(setups.back().serve_ms);
    warm_ms.push_back(setups.back().warm_ms);
  }
  Stack& st = setups.back();
  RequestStream stream(opt.seed);
  std::uint64_t index = 0;
  const iatf::EngineStats e0 = st.engine->stats();
  const iatf::net::NetStats n0 = st.net->stats();
  const iatf::serve::ServerStats s0 = st.server->stats();

  // Latency phase: closed loop, one request outstanding.
  RequestLoop lat(stream, *st.client, opt.seed);
  const std::int64_t lat_start = now_ns();
  const std::int64_t lat_end =
      lat_start + static_cast<std::int64_t>(opt.seconds * 0.5e9);
  std::int64_t due = lat_start;
  while (now_ns() < lat_end) {
    lat.submit(stream.next(), index++, due);
    lat.collect();
    due = lat.records().back().done;
  }
  LateTracker lt;
  SampleWindows lat_us(lat_start, lat_end, kWindows);
  for (const Record& r : lat.records()) {
    lt.record(r.due, r.sent, r.done);
    lat_us.add(r.due, (r.done - r.due) / 1e3);
  }

  // Saturation phase: kWireOutstanding requests in flight.
  RequestLoop sat(stream, *st.client, opt.seed);
  const std::int64_t sat_start = now_ns();
  const std::int64_t sat_end =
      sat_start + static_cast<std::int64_t>(opt.seconds * 0.4e9);
  Windows windows(sat_start, sat_end, kWindows);
  sat.count_into(&windows);
  while (now_ns() < sat_end) {
    while (sat.outstanding() < static_cast<std::size_t>(kWireOutstanding)) {
      sat.submit(stream.next(), index++, now_ns());
    }
    sat.collect();
  }
  sat.finish();
  const std::uint64_t wrong = check_samples(stream, lat.samples()) +
                              check_samples(stream, sat.samples());
  const std::uint64_t attempted = lat.count() + sat.count();
  const std::uint64_t failed = lat.failed() + sat.failed();
  const iatf::EngineStats e1 = st.engine->stats();
  const iatf::net::NetStats n1 = st.net->stats();
  const iatf::serve::ServerStats s1 = st.server->stats();
  out.attempted += attempted;
  out.failed += failed + wrong;
  out.wrong += wrong;

  print_census("wire", stream.census(), stream.working_set_bytes());
  std::printf("wire: closed loop (1 outstanding), then %d outstanding "
              "(server max_outstanding %u); %zu samples checked vs "
              "iatf::ref\n",
              kWireOutstanding, st.client->server_caps().max_outstanding,
              lat.samples().size() + sat.samples().size());
  st.client->goodbye();
  st.net->drain();
  ::unlink(sock.c_str());

  rep.set("setup_s", median(setup_s), "s");
  rep.set("latency_p50_us",
          lat_us.figure(50, kTimeQuartile, kMinWindowSamples), "us");
  rep.set("latency_p90_us",
          lat_us.figure(90, kTimeQuartile, kMinWindowSamples), "us");
  rep.set("gflops", windows.rate(kRateQuartile), "GFLOPS");
  if (!opt.trace) {
    return;
  }
  rep.set("setup.engine_ms", median(engine_ms), "ms");
  rep.set("setup.serve_ms", median(serve_ms), "ms");
  rep.set("setup.warm_ms", median(warm_ms), "ms");
  set_engine_counts(rep, *st.engine, e0, e1);
  set_serve_counts(rep, s0, s1);
  set_net_counts(rep, n0, n1);
  rep.set("e2e.latency_p99_us", percentile(lt.latency_ns(), 99) / 1e3, "us");
  rep.set("gen.late_p99_us", lt.late_p99_ns() / 1e3, "us");
  rep.set("gen.late_max_us", lt.late_max_ns() / 1e3, "us");
  // Spans: request -> encode+send, then wait for the reply.
  Tracer tracer(true);
  std::uint32_t req = 0;
  for (const Record& r : lat.records()) {
    const std::int32_t root = tracer.begin("wire.request", -1, req);
    tracer.at(root, r.sent, r.done);
    tracer.at(tracer.begin("net.encode_send", root, req), r.sent, r.submitted);
    tracer.at(tracer.begin("net.await_reply", root, req), r.submitted, r.done);
    ++req;
  }
  tracer.write_summary(opt.out_dir + "/perfbench-trace-wire.json");
}

} // namespace perfbench
