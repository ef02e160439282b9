// serve_mix: the qlec_serve stack (HttpServer + JobService) in-process on
// loopback, driven by two closed-loop clients. Each request submits the
// golden-replay grid (13 protocols, N = 40) under a base_seed from a seeded
// sequence in which 8 of every 10 requests repeat an earlier base_seed, so
// the ResultStore answers them; the rest simulate. A client POSTs the grid,
// then GETs the run's manifest, which blocks until every cell is done.
//
// The server is restarted every kEpochRequests requests. Each start is one
// set-up sample, and the restart keeps the result cache and the run table
// (which both grow per request) the same size whatever the run's speed.
#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "config/jobs.hpp"
#include "config/sweep.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "sim/protocols/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr const char* kGrid = "examples/scenarios/golden_replay.json";
constexpr const char* kGoldenDir = "tests/golden/";
constexpr const char* kHost = "127.0.0.1";
constexpr std::uint64_t kGoldenSeed = 42;  ///< the grid's committed seed
constexpr std::size_t kClients = 2;
constexpr std::size_t kJobWorkers = 4;
constexpr std::size_t kHttpWorkers = 2;
constexpr std::size_t kEpochRequests = 100;
constexpr int kRepeatsPerTen = 8;
/// A repeat names a base_seed first sent at least this many requests
/// earlier, so it normally finds the result cached rather than in flight.
constexpr std::size_t kRepeatDistance = 3;

qlec::JsonValue with_base_seed(const qlec::JsonValue& grid,
                               std::uint64_t base_seed) {
  return qlec::config::with_path_set(
      grid, "base_seed",
      qlec::JsonValue::make_number(static_cast<double>(base_seed)));
}

/// base_seeds of one epoch's requests: kGoldenSeed first, then blocks of ten
/// with kRepeatsPerTen repeats at seeded positions.
std::vector<std::uint64_t> epoch_sequence(std::uint64_t workload_seed,
                                          std::uint64_t epoch) {
  qlec::Rng rng(derive_seed(workload_seed, 1000 + epoch));
  std::vector<std::uint64_t> seq{kGoldenSeed};
  std::vector<std::pair<std::size_t, std::uint64_t>> fresh{{0, kGoldenSeed}};
  while (seq.size() < kEpochRequests) {
    bool repeat[10] = {};
    std::fill(repeat, repeat + kRepeatsPerTen, true);
    for (std::size_t i = 9; i > 0; --i)
      std::swap(repeat[i], repeat[rng.uniform_int(i + 1)]);
    for (std::size_t b = 0; b < 10 && seq.size() < kEpochRequests; ++b) {
      const std::size_t pos = seq.size();
      std::size_t eligible = 0;
      while (eligible < fresh.size() &&
             fresh[eligible].first + kRepeatDistance <= pos)
        ++eligible;
      if (repeat[b] && eligible > 0) {
        seq.push_back(fresh[rng.uniform_int(eligible)].second);
      } else {
        const std::uint64_t s = rng.next_u64() >> 12;
        seq.push_back(s);
        fresh.emplace_back(pos, s);
      }
    }
  }
  return seq;
}

/// tests/golden/<protocol>.digest for every registry protocol.
std::map<std::string, std::vector<std::string>> read_goldens() {
  std::map<std::string, std::vector<std::string>> goldens;
  for (const std::string& p : qlec::protocol_names()) {
    const std::string text = read_file(kGoldenDir + p + ".digest");
    std::size_t at = 0;
    while (at < text.size()) {
      std::size_t end = text.find('\n', at);
      if (end == std::string::npos) end = text.size();
      const std::string line = text.substr(at, end - at);
      if (!line.empty() && line[0] != '#') goldens[p].push_back(line);
      at = end + 1;
    }
  }
  return goldens;
}

/// Per-protocol digests of a manifest (cells keyed by their protocol.name
/// binding); empty on any shape error.
std::map<std::string, std::vector<std::string>> manifest_digests(
    const std::string& body) {
  std::map<std::string, std::vector<std::string>> out;
  const std::optional<qlec::JsonValue> doc = qlec::parse_json(body);
  const qlec::JsonValue* cells = doc ? doc->get("cells") : nullptr;
  if (cells == nullptr || !cells->is_array()) return {};
  for (const qlec::JsonValue& cell : cells->items()) {
    const qlec::JsonValue* bindings = cell.get("bindings");
    const qlec::JsonValue* name =
        bindings != nullptr ? bindings->get("protocol.name") : nullptr;
    const qlec::JsonValue* digests = cell.get("digests");
    if (name == nullptr || !name->is_string() || digests == nullptr ||
        !digests->is_array())
      return {};
    std::vector<std::string>& d = out[name->as_string()];
    for (const qlec::JsonValue& x : digests->items())
      d.push_back(x.is_string() ? x.as_string() : "");
  }
  return out;
}

/// Shared verdicts of all clients: every manifest of a base_seed must
/// carry the digests its first manifest carried, and kGoldenSeed's must be
/// the committed goldens.
class ManifestGate {
 public:
  ManifestGate(Report& report,
               std::map<std::string, std::vector<std::string>> goldens)
      : report_(report), goldens_(std::move(goldens)) {
    refs_[kGoldenSeed] = goldens_;
  }

  void operation(bool ok, const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex_);
    report_.attempt(ok, what);
  }

  /// True when `body` matches the reference for `base_seed` (the first
  /// manifest seen for it becomes the reference).
  bool matches(std::uint64_t base_seed, const std::string& body) {
    auto digests = manifest_digests(body);
    if (digests.size() != goldens_.size()) return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, first] = refs_.try_emplace(base_seed, std::move(digests));
    return first || it->second == digests;
  }

  /// The first manifest's digests for `base_seed` (empty when unseen).
  std::map<std::string, std::vector<std::string>> reference(
      std::uint64_t base_seed) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = refs_.find(base_seed);
    return it == refs_.end() ? decltype(it->second){} : it->second;
  }

 private:
  std::mutex mutex_;
  Report& report_;
  const std::map<std::string, std::vector<std::string>> goldens_;
  std::map<std::uint64_t, std::map<std::string, std::vector<std::string>>>
      refs_;
};

/// JobRunner counters summed over epochs.
struct JobTotals {
  std::uint64_t submitted = 0, simulated = 0, cache_hits = 0, coalesced = 0;
};

struct EpochResult {
  double setup_s = 0.0;
  double peak_rss_mib = 0.0;  ///< from server start to stop
  double load_s = 0.0;  ///< first request sent to last reply received
  std::vector<double> latencies_s;
  double handler_s = 0.0;  ///< summed service time (timed epochs only)
};

/// One server lifetime: start, wait for /healthz, run the clients over
/// `seq` until done or `deadline`, stop. With `timed_handler`, the service
/// call of every request is timed (the traced run's in-loop tracing).
EpochResult run_epoch(const std::vector<std::uint64_t>& seq,
                      const std::map<std::uint64_t, std::string>& bodies,
                      Clock::time_point deadline, bool timed_handler,
                      ManifestGate& gate, JobTotals& totals) {
  EpochResult r;
  std::mutex handler_mutex;
  reset_peak_rss();
  const Clock::time_point t0 = Clock::now();
  qlec::serve::ServiceOptions opts;
  opts.workers = kJobWorkers;
  qlec::serve::JobService service(opts);
  qlec::serve::HttpHandler handler =
      [&service](const qlec::serve::HttpRequest& req,
                 qlec::serve::HttpResponse& resp) { service.handle(req, resp); };
  if (timed_handler)
    handler = [&](const qlec::serve::HttpRequest& req,
                  qlec::serve::HttpResponse& resp) {
      const Clock::time_point h0 = Clock::now();
      service.handle(req, resp);
      const double spent = seconds_since(h0);
      if (req.path == "/healthz") return;
      const std::lock_guard<std::mutex> lock(handler_mutex);
      r.handler_s += spent;
    };
  qlec::serve::HttpServer server(kHost, 0, handler, kHttpWorkers);
  for (int attempt = 0;; ++attempt) {
    const auto health =
        qlec::serve::http_request(kHost, server.port(), "GET", "/healthz");
    if (health && health->status == 200) break;
    if (attempt >= 100) throw std::runtime_error("server never got healthy");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  r.setup_s = seconds_since(t0);

  std::atomic<std::size_t> next{0};
  std::vector<std::vector<double>> latencies(kClients);
  const auto client = [&](std::size_t c) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= seq.size() || Clock::now() >= deadline) return;
      const std::uint64_t base_seed = seq[i];
      const std::string what = "request " + std::to_string(i) +
                               " base_seed=" + std::to_string(base_seed);
      const Clock::time_point s0 = Clock::now();
      const auto post = qlec::serve::http_request(
          kHost, server.port(), "POST", "/v1/runs", bodies.at(base_seed));
      std::string run_id;
      if (post && post->status == 202) {
        const auto doc = qlec::parse_json(post->body);
        const qlec::JsonValue* id = doc ? doc->get("run_id") : nullptr;
        if (id != nullptr && id->is_string()) run_id = id->as_string();
      }
      if (run_id.empty()) {
        gate.operation(false, what + ": POST /v1/runs failed");
        continue;
      }
      const auto manifest = qlec::serve::http_request(
          kHost, server.port(), "GET", "/v1/runs/" + run_id + "/manifest");
      const double latency = seconds_since(s0);
      if (!manifest || manifest->status != 200) {
        gate.operation(false, what + ": GET manifest failed");
        continue;
      }
      latencies[c].push_back(latency);
      gate.operation(gate.matches(base_seed, manifest->body),
                     what + ": manifest digests differ from the reference");
    }
  };
  const Clock::time_point l0 = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  r.load_s = seconds_since(l0);
  server.stop();
  r.peak_rss_mib = peak_rss_mib();

  const qlec::config::JobRunner::Stats s = service.runner().stats();
  gate.operation(s.failed == 0 && s.cancelled == 0,
                 std::to_string(s.failed) + " failed / " +
                     std::to_string(s.cancelled) + " cancelled jobs");
  totals.submitted += s.submitted;
  totals.simulated += s.simulated;
  totals.cache_hits += s.cache_hits;
  totals.coalesced += s.coalesced;
  for (const auto& l : latencies)
    r.latencies_s.insert(r.latencies_s.end(), l.begin(), l.end());
  return r;
}

/// Times the public functions a request passes through, outside the
/// server, on the bodies of `seeds`: parse_http_request, parse_scenario +
/// expand_grid, plan, run_cell, ResultStore::lookup and manifest_to_json.
/// Cycles through `seeds` until `budget_s` has passed, at least once.
/// run_cell's digests must equal the manifests the server returned.
void replay_layers(const std::vector<std::uint64_t>& seeds,
                   const qlec::JsonValue& grid, double budget_s,
                   ManifestGate& gate, LayerValues& v) {
  std::vector<double> http_s, parse_s, plan_s, simulate_s, lookup_s,
      serialize_s;
  double pdr = 0.0, heads = 0.0, cells_seen = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::size_t n = 0;
       n < seeds.size() || seconds_since(start) < budget_s; ++n) {
    const std::uint64_t seed = seeds[n % seeds.size()];
    const std::string body = qlec::dump_json(with_base_seed(grid, seed));
    const std::string raw =
        "POST /v1/runs HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
        "application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
    qlec::serve::HttpRequest req;
    Clock::time_point t0 = Clock::now();
    const bool parsed = qlec::serve::parse_http_request(raw, req);
    http_s.push_back(seconds_since(t0));
    gate.operation(parsed && req.body == body,
                   "replayed request did not parse");

    t0 = Clock::now();
    const auto cells =
        qlec::config::expand_grid(qlec::config::parse_scenario(req.body));
    parse_s.push_back(seconds_since(t0));

    t0 = Clock::now();
    const std::vector<qlec::config::JobSpec> specs = qlec::config::plan(cells);
    plan_s.push_back(seconds_since(t0));

    qlec::config::ResultStore store;
    qlec::config::RunManifest manifest;
    std::map<std::string, std::vector<std::string>> digests;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      t0 = Clock::now();
      qlec::config::CellResult result = qlec::config::run_cell(cells[i]);
      simulate_s.push_back(seconds_since(t0));
      digests[cells[i].config.protocol.name] = result.digests;
      pdr += result.metrics.pdr.mean();
      heads += result.metrics.heads_per_round.mean();
      cells_seen += 1.0;
      store.insert(specs[i].key, result);
      manifest.cells.push_back(std::move(result));
    }
    for (const qlec::config::JobSpec& spec : specs) {
      t0 = Clock::now();
      const bool hit = store.lookup(spec.key).has_value();
      lookup_s.push_back(seconds_since(t0));
      gate.operation(hit, "replayed ResultStore lookup missed");
    }
    t0 = Clock::now();
    const std::string json = qlec::config::manifest_to_json(manifest);
    serialize_s.push_back(seconds_since(t0));
    gate.operation(!json.empty(), "empty replayed manifest");
    const auto reference = gate.reference(seed);
    gate.operation(
        !reference.empty() && digests == reference,
        "run_cell digests differ from the served manifest, base_seed=" +
            std::to_string(seed));
  }
  v.set("serve.http_us", 1e6 * median(http_s));
  v.set("config.parse_us", 1e6 * median(parse_s));
  v.set("config.plan_us", 1e6 * median(plan_s));
  v.set("config.simulate_ms", 1e3 * median(simulate_s));
  v.set("config.lookup_us", 1e6 * median(lookup_s));
  v.set("config.serialize_us", 1e6 * median(serialize_s));
  v.set("sim.pdr", pdr / cells_seen);
  v.set("sim.heads_per_round", heads / cells_seen);
}

}  // namespace

void run_serve_mix(const RunArgs& args, Report& report) {
  const std::optional<qlec::JsonValue> grid =
      qlec::parse_json(read_file(kGrid));
  if (!grid) throw std::runtime_error(std::string("cannot parse ") + kGrid);
  ManifestGate gate(report, read_goldens());
  const std::vector<qlec::config::SweepCell> cells =
      qlec::config::expand_grid(qlec::config::parse_scenario(
          qlec::dump_json(with_base_seed(*grid, kGoldenSeed))));
  const qlec::ExperimentConfig& cell0 = cells.at(0).config;
  const double node_rounds_per_cell = static_cast<double>(cell0.scenario.n) *
                                      cell0.sim.rounds *
                                      static_cast<double>(cell0.seeds);

  // The traced run spends this share of its time on the HTTP loop, and
  // alternates plain and handler-timed epochs within it; the rest replays
  // the request path outside the server.
  const double loop_s = args.trace ? 0.75 * args.seconds : args.seconds;
  const Clock::time_point loop0 = Clock::now();
  const Clock::time_point deadline =
      loop0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(loop_s));
  JobTotals totals;
  std::vector<double> setup_s, rss_mib, latencies_s, plain_s, timed_s;
  double load_s = 0.0, handler_s = 0.0, timed_latency_s = 0.0;
  std::size_t timed_requests = 0;
  std::vector<std::uint64_t> first_epoch;
  std::map<std::uint64_t, std::string> bodies;
  for (std::uint64_t epoch = 0; Clock::now() < deadline; ++epoch) {
    const std::vector<std::uint64_t> seq = epoch_sequence(args.seed, epoch);
    bodies.clear();
    for (const std::uint64_t s : seq)
      if (bodies.count(s) == 0)
        bodies[s] = qlec::dump_json(with_base_seed(*grid, s));
    if (epoch == 0) first_epoch = seq;
    const bool timed = args.trace && epoch % 2 == 1;
    const EpochResult r =
        run_epoch(seq, bodies, deadline, timed, gate, totals);
    setup_s.push_back(r.setup_s);
    rss_mib.push_back(r.peak_rss_mib);
    load_s += r.load_s;
    latencies_s.insert(latencies_s.end(), r.latencies_s.begin(),
                       r.latencies_s.end());
    std::vector<double>& side = timed ? timed_s : plain_s;
    side.insert(side.end(), r.latencies_s.begin(), r.latencies_s.end());
    if (timed) {
      handler_s += r.handler_s;
      for (const double l : r.latencies_s) timed_latency_s += l;
      timed_requests += r.latencies_s.size();
    }
  }
  std::fprintf(stderr,
               "perfbench: %zu requests over %zu server starts in %.1f s; "
               "%llu cells submitted, %llu simulated\n",
               latencies_s.size(), setup_s.size(), load_s,
               static_cast<unsigned long long>(totals.submitted),
               static_cast<unsigned long long>(totals.simulated));

  if (!args.trace) {
    EndToEnd e;
    e.setup_s = median(setup_s);
    e.peak_rss_mib = median(rss_mib);
    e.node_rounds_per_s =
        static_cast<double>(totals.simulated) * node_rounds_per_cell / load_s;
    e.lat_p50_ms = 1e3 * percentile(latencies_s, 50.0);
    e.lat_p90_ms = 1e3 * percentile(latencies_s, 90.0);
    e.req_per_s = static_cast<double>(latencies_s.size()) / load_s;
    emit_end_to_end(e, report);
    return;
  }

  LayerValues v;
  const auto submitted = static_cast<double>(totals.submitted);
  v.set("config.jobs.submitted", submitted);
  v.set("config.jobs.simulated", static_cast<double>(totals.simulated));
  v.set("config.jobs.cache_hits", static_cast<double>(totals.cache_hits));
  v.set("config.jobs.coalesced", static_cast<double>(totals.coalesced));
  v.set("config.jobs.hit_ratio",
        submitted > 0.0 ? static_cast<double>(totals.cache_hits +
                                              totals.coalesced) /
                              submitted
                        : 0.0);
  if (!plain_s.empty() && !timed_s.empty())
    v.set("trace.overhead", median(timed_s) / median(plain_s));
  if (timed_requests > 0)
    v.set("serve.residual_ms",
          1e3 * (timed_latency_s - handler_s) /
              static_cast<double>(timed_requests));

  // Replay the distinct seeds of the first epoch for the rest of the run.
  std::vector<std::uint64_t> replay;
  for (const std::uint64_t s : first_epoch)
    if (std::find(replay.begin(), replay.end(), s) == replay.end())
      replay.push_back(s);
  replay_layers(replay, *grid, args.seconds - loop_s, gate, v);
  v.emit(report);
}

}  // namespace perfbench
