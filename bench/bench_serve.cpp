// E17 — serving latency: the worklist-driven incremental fixpoint behind
// `gammaflow serve`. First a scripted-session differential (the daemon's
// final store must equal a batch run over the union of every injection —
// exit 1 on mismatch, the CI smoke gate), then the sparse-touch ablation
// (footprint wakeups in a daemon session vs an in-process full rescan,
// every reaction's footprint `consume_any`, across K standing label
// populations) and closed-/open-loop load generation measuring p50/p99
// injection-to-quiescence latency over a real Unix socket.
//
// GF_SERVE_SOCKET=<path> drives an externally started daemon instead of
// the in-process one (CI starts `gammaflow serve --socket` first);
// GF_SERVE_SHUTDOWN=1 additionally sends the shutdown verb when done.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "gammaflow/common/json.hpp"
#include "gammaflow/common/rng.hpp"
#include "gammaflow/gamma/dsl/parser.hpp"
#include "gammaflow/gamma/engine.hpp"
#include "gammaflow/obs/telemetry.hpp"
#include "gammaflow/runtime/step_loop.hpp"
#include "gammaflow/runtime/worklist.hpp"
#include "gammaflow/serve/server.hpp"

using namespace gammaflow;

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Exact percentile from raw samples (sorted copy); the tables report
/// client-observed latency, not histogram-bucket approximations.
double pct(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

const char* kMin = "Rmin = replace x, y by x where x < y";

/// K independent per-label accumulators: an injection tagged 'L<i>' can
/// only ever enable reaction i, so footprint wakeups probe one reaction
/// while the rescan baseline probes all K.
std::string k_label_program(std::size_t k) {
  std::string text;
  for (std::size_t i = 0; i < k; ++i) {
    const std::string label = "L" + std::to_string(i);
    text += "R" + std::to_string(i) + " = replace [a,'" + label + "'], [b,'" +
            label + "'] by [a + b, '" + label + "']\n";
  }
  return text;
}

/// The standing state of the sparse-touch runs: 8 elements per label.
std::string k_label_init(std::size_t k) {
  std::string init;
  for (std::size_t i = 0; i < k; ++i) {
    for (int v = 0; v < 8; ++v) {
      init.append("[")
          .append(std::to_string(v))
          .append(",'L")
          .append(std::to_string(i))
          .append("'] ");
    }
  }
  return init;
}

/// Injection `j` of the sparse-touch traffic: one element of label j mod k.
std::string touch_element(Rng& rng, std::size_t j, std::size_t k) {
  return std::string("[")
      .append(std::to_string(rng.bounded(100)))
      .append(",'L")
      .append(std::to_string(j % k))
      .append("']");
}

/// The full-rescan baseline: an in-process incremental fixpoint with every
/// reaction's footprint `consume_any`, so each insert wakes them all.
runtime::IncrementalFixpoint rescan_fixpoint(const std::string& program) {
  gamma::Program parsed = gamma::dsl::parse_program(program);
  gamma::Footprint any;
  any.consume_any = true;
  const std::vector<gamma::Footprint> all_any(parsed.all_reactions().size(),
                                              any);
  return runtime::IncrementalFixpoint(std::move(parsed), all_any,
                                      runtime::WorklistOptions{});
}

/// Injects `elements` (DSL text) into `fix`, read into one reused buffer
/// as a serve connection reads an inject line's elements.
void inject_text(runtime::IncrementalFixpoint& fix,
                 const std::string& elements) {
  thread_local gamma::FlatElements flat;
  gamma::dsl::read_elements(elements, flat);
  (void)fix.inject(flat);
}

std::string create_line(const std::string& session, const std::string& program,
                        const std::string& init) {
  std::string line = R"({"verb":"create","session":)" +
                     json_quote(session) +
                     R"(,"program":)" + json_quote(program);
  if (!init.empty()) line += R"(,"init":)" + json_quote(init);
  return line + "}";
}

std::string inject_line(const std::string& session,
                        const std::string& elements) {
  return R"({"verb":"inject","session":)" + json_quote(session) +
         R"(,"elements":)" + json_quote(elements) + "}";
}

std::string simple_line(const char* verb, const std::string& session) {
  return std::string(R"({"verb":")") + verb + R"(","session":)" +
         json_quote(session) + "}";
}

Json expect_ok(const std::string& reply_line, const char* what) {
  const Json reply = parse_json(reply_line);
  if (!reply.bool_or("ok", false)) {
    std::cout << "FATAL: " << what << " failed: " << reply_line << '\n';
    std::exit(1);
  }
  return reply;
}

// ------------------------------------------------------------- the daemon

/// The daemon under test: an externally started one when GF_SERVE_SOCKET
/// is set (CI mode), otherwise an in-process Server on a scratch socket.
struct Daemon {
  std::string socket_path;
  bool external = false;
  std::unique_ptr<serve::Server> server;
  std::thread thread;

  static Daemon start() {
    Daemon d;
    if (const char* ext = std::getenv("GF_SERVE_SOCKET");
        ext != nullptr && *ext != '\0') {
      d.socket_path = ext;
      d.external = true;
      return d;
    }
    d.socket_path =
        "/tmp/gf_bench_serve_" + std::to_string(::getpid()) + ".sock";
    serve::ServeOptions opts;
    opts.socket_path = d.socket_path;
    opts.default_program = kMin;
    d.server = std::make_unique<serve::Server>(std::move(opts));
    d.thread = std::thread([srv = d.server.get()] { (void)srv->serve_socket(); });
    return d;
  }

  /// Connect with retries: the accept loop may still be binding.
  [[nodiscard]] std::unique_ptr<serve::Client> connect() const {
    for (int attempt = 0;; ++attempt) {
      try {
        return std::make_unique<serve::Client>(socket_path);
      } catch (const Error&) {
        if (attempt > 200) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }

  void stop() {
    const bool want_shutdown =
        !external || [] {
          const char* s = std::getenv("GF_SERVE_SHUTDOWN");
          return s != nullptr && std::string(s) == "1";
        }();
    if (want_shutdown) {
      (void)connect()->call(R"({"verb":"shutdown"})");
    }
    if (thread.joinable()) thread.join();
  }
};

// ------------------------------------------------- scripted differential

/// The CI gate: replay a seeded injection schedule through the daemon,
/// then diff its final store against a batch IndexedEngine run over the
/// union of every injected element. Byte-identical or exit 1.
void scripted_differential(Daemon& daemon) {
  const std::string program =
      "Rsum = replace [a,'acc'], [b,'acc'] by [a + b, 'acc']\n"
      "Rmin = replace x, y by x where x < y";
  const auto client = daemon.connect();
  expect_ok(client->call(create_line("diff", program, "")), "create");

  Rng rng(17);
  gamma::Multiset all;
  std::size_t injected = 0;
  for (int batch = 0; batch < 12; ++batch) {
    std::string elements;
    const std::size_t n = 1 + rng.bounded(6);
    for (std::size_t i = 0; i < n; ++i) {
      const auto v = static_cast<std::int64_t>(rng.bounded(1000));
      if (rng.bounded(2) == 0) {
        all.add(gamma::Element{Value(v)});
        elements += std::to_string(v) + " ";
      } else {
        all.add(gamma::Element::labeled(Value(v), "acc"));
        elements += "[" + std::to_string(v) + ",'acc'] ";
      }
      ++injected;
    }
    expect_ok(client->call(inject_line("diff", elements)), "inject");
  }

  const Json snap =
      expect_ok(client->call(simple_line("snapshot", "diff")), "snapshot");
  obs::StoreCounts served;
  for (const auto& [elem, count] : snap.get("store")->as_obj()) {
    served[elem] = count.as_int();
  }
  expect_ok(client->call(simple_line("close", "diff")), "close");

  const obs::StoreCounts oracle = runtime::store_counts(
      gamma::IndexedEngine()
          .run(gamma::dsl::parse_program(program), all)
          .final_multiset);
  bench::Table table({"injections", "injected", "store", "matches_batch"});
  table.row(12, injected, served.size(), served == oracle ? "yes" : "NO");
  if (served != oracle) {
    std::cout << "DIFFERENTIAL MISMATCH: served store != batch fixpoint over "
                 "the union of injections\n";
    std::exit(1);
  }
}

// ------------------------------------------- sparse-touch: worklist A/B

/// K standing populations, traffic touching one label per inject: the
/// footprint index probes O(1) reactions per injection while the rescan
/// baseline probes all K. Identical fixpoints, diverging rematch counts.
/// The worklist rows run in a daemon session and read its quiesce_us; the
/// rescan rows run in process and time inject() the way a session times
/// quiesce_us, so neither column holds wire time.
void sparse_touch_sweep(Daemon& daemon, obs::Telemetry& tel) {
  std::cout << '\n';
  bench::Table table({"labels", "mode", "p50_us", "p99_us", "wakeups",
                      "rematches"});
  const auto client = daemon.connect();
  for (const std::size_t k : {2u, 8u, 32u}) {
    const std::string program = k_label_program(k);
    const std::string init = k_label_init(k);
    for (const bool rescan : {false, true}) {
      const std::string mode = rescan ? "rescan" : "worklist";
      std::vector<double> quiesce;
      Rng rng(23);
      std::int64_t wakeups = 0;
      std::int64_t rematches = 0;
      if (rescan) {
        runtime::IncrementalFixpoint fix = rescan_fixpoint(program);
        inject_text(fix, init);
        for (std::size_t j = 0; j < 200; ++j) {
          const std::string element = touch_element(rng, j, k);
          const auto t0 = Clock::now();
          inject_text(fix, element);
          quiesce.push_back(us_since(t0));
        }
        wakeups = static_cast<std::int64_t>(fix.stats().wakeups);
        rematches = static_cast<std::int64_t>(fix.stats().rematches);
      } else {
        const std::string session = mode + std::to_string(k);
        expect_ok(client->call(create_line(session, program, init)),
                  "create");
        for (std::size_t j = 0; j < 200; ++j) {
          const Json reply = expect_ok(
              client->call(inject_line(session, touch_element(rng, j, k))),
              "inject");
          quiesce.push_back(reply.num_or("quiesce_us", 0.0));
        }
        const Json stats =
            expect_ok(client->call(simple_line("stats", session)), "stats");
        wakeups = stats.int_or("wakeups", 0);
        rematches = stats.int_or("rematches", 0);
        expect_ok(client->call(simple_line("close", session)), "close");
      }
      table.row(k, mode, pct(quiesce, 0.50), pct(quiesce, 0.99), wakeups,
                rematches);
      const std::string key = "serve.k" + std::to_string(k) + "." + mode;
      tel.stats().count(key + ".rematches",
                        static_cast<std::uint64_t>(rematches));
      auto& hist = tel.stats().hist(key + ".quiesce_us");
      for (const double q : quiesce) hist.observe(q);
    }
  }
}

// ------------------------------------------------- closed-loop latency

/// Closed loop: each client waits for the reply before injecting again —
/// pure service latency, no queueing. C>1 adds independent connections
/// contending for the daemon.
void closed_loop_sweep(Daemon& daemon, obs::Telemetry& tel) {
  std::cout << '\n';
  bench::Table table({"clients", "injects", "rtt_p50_us", "rtt_p99_us",
                      "quiesce_p50_us", "quiesce_p99_us"});
  for (const std::size_t clients : {1u, 4u}) {
    std::vector<std::vector<double>> rtts(clients), quiesces(clients);
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        const auto client = daemon.connect();
        const std::string session = "cl" + std::to_string(clients) + "_" +
                                    std::to_string(c);
        expect_ok(client->call(create_line(session, kMin, "1000000")),
                  "create");
        Rng rng(41 + c);
        for (int j = 0; j < 200; ++j) {
          const auto t0 = Clock::now();
          const Json reply = expect_ok(
              client->call(inject_line(
                  session, std::to_string(rng.bounded(1000000)))),
              "inject");
          rtts[c].push_back(us_since(t0));
          quiesces[c].push_back(reply.num_or("quiesce_us", 0.0));
        }
        expect_ok(client->call(simple_line("close", session)), "close");
      });
    }
    for (std::thread& t : workers) t.join();
    std::vector<double> rtt, quiesce;
    for (std::size_t c = 0; c < clients; ++c) {
      rtt.insert(rtt.end(), rtts[c].begin(), rtts[c].end());
      quiesce.insert(quiesce.end(), quiesces[c].begin(), quiesces[c].end());
    }
    table.row(clients, rtt.size(), pct(rtt, 0.50), pct(rtt, 0.99),
              pct(quiesce, 0.50), pct(quiesce, 0.99));
    auto& hist = tel.stats().hist("serve.closed_c" + std::to_string(clients) +
                                  ".rtt_us");
    for (const double r : rtt) hist.observe(r);
  }
}

// --------------------------------------------------- open-loop latency

/// Open loop: requests leave on a fixed schedule regardless of replies
/// (pipelined on one connection; the daemon serves a connection in
/// order), so latency includes queueing delay once the offered rate
/// passes service capacity — the tail the closed loop can't see.
void open_loop_sweep(Daemon& daemon, obs::Telemetry& tel) {
  std::cout << '\n';
  bench::Table table({"rate_per_s", "requests", "lat_p50_us", "lat_p99_us"});
  for (const double rate : {2000.0, 20000.0}) {
    const int n = 400;
    const auto client = daemon.connect();
    const std::string session = "ol" + std::to_string(static_cast<int>(rate));
    expect_ok(client->call(create_line(session, kMin, "1000000")),
              "create");

    std::vector<double> lat;
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    // Each request is scheduled at start + i*interval; latency counts from
    // the SCHEDULED time, not the actual send — when the daemon falls
    // behind the offered rate, a request's wait for the connection to free
    // up is queueing delay and belongs in its latency (the standard
    // coordinated-omission correction).
    const auto start = Clock::now();
    Rng rng(59);
    for (int i = 0; i < n; ++i) {
      const auto scheduled = start + i * interval;
      std::this_thread::sleep_until(scheduled);
      (void)expect_ok(client->call(inject_line(
                          session, std::to_string(rng.bounded(1000000)))),
                      "inject");
      lat.push_back(std::chrono::duration<double, std::micro>(Clock::now() -
                                                              scheduled)
                        .count());
    }
    expect_ok(client->call(simple_line("close", session)), "close");
    table.row(rate, n, pct(lat, 0.50), pct(lat, 0.99));
    auto& hist = tel.stats().hist(
        "serve.open_r" + std::to_string(static_cast<int>(rate)) + ".lat_us");
    for (const double l : lat) hist.observe(l);
  }
}

void verify() {
  bench::header(
      "E17 — streaming serve mode (worklist incremental fixpoint)",
      "claim: incremental injection reaches the exact batch fixpoint while "
      "footprint wakeups keep injection-to-quiescence latency flat as "
      "standing state grows; full rescan degrades with reaction count");
  Daemon daemon = Daemon::start();
  obs::Telemetry tel;
  scripted_differential(daemon);
  sparse_touch_sweep(daemon, tel);
  closed_loop_sweep(daemon, tel);
  open_loop_sweep(daemon, tel);
  daemon.stop();
  bench::metrics_json(std::cout, "serve_latency", tel.metrics());
}

// ------------------------------------------------------------ benchmarks

/// In-process (no socket) against K standing label populations: arg1 = 0
/// is one inject line through Server::handle_line, arg1 = 1 one inject()
/// into the rescan baseline's IncrementalFixpoint (no wire parse).
void BM_Serve_SparseTouchInject(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const bool rescan = state.range(1) != 0;
  const std::string program = k_label_program(k);
  const std::string init = k_label_init(k);
  Rng rng(7);
  std::size_t j = 0;
  if (rescan) {
    runtime::IncrementalFixpoint fix = rescan_fixpoint(program);
    inject_text(fix, init);
    for (auto _ : state) inject_text(fix, touch_element(rng, j++, k));
  } else {
    serve::Server server(serve::ServeOptions{});
    (void)server.handle_line(create_line("s", program, init));
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          server.handle_line(inject_line("s", touch_element(rng, j++, k))));
    }
  }
  state.SetLabel(rescan ? "rescan" : "worklist");
}
BENCHMARK(BM_Serve_SparseTouchInject)
    ->Args({2, 0})->Args({2, 1})
    ->Args({8, 0})->Args({8, 1})
    ->Args({32, 0})->Args({32, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_Serve_ProtocolPing(benchmark::State& state) {
  serve::ServeOptions opts;
  serve::Server server(std::move(opts));
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.handle_line(R"({"verb":"ping"})"));
  }
}
BENCHMARK(BM_Serve_ProtocolPing)->Unit(benchmark::kMicrosecond);

}  // namespace

GF_BENCH_MAIN(verify)
