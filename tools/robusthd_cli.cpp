// robusthd — command-line front end for the library.
//
// Subcommands:
//   train   --dataset NAME --out FILE [--dimension D] [--levels L]
//           [--train N] [--test N] [--precision B] [--seed S]
//       Train on a synthetic paper benchmark and save the model.
//       Alternatively --csv FILE [--label-col I] [--header 1]
//       [--split 0.8] trains on a real CSV dataset (numeric features,
//       label column anywhere; see data/loader.hpp).
//   eval    --model FILE --dataset NAME [--test N] [--seed S]
//       Load a model and report accuracy.
//   attack  --model FILE --dataset NAME --rate R
//           [--mode random|targeted|clustered] [--out FILE]
//       Inject bit flips into a stored model, report the damage, and
//       optionally save the attacked model.
//   recover --model FILE --dataset NAME [--epochs E] [--out FILE]
//       Run the RobustHD self-recovery over unlabeled queries.
//   info    --model FILE
//       Print a stored model's shape and storage format (RHD1/RHD2).
//   integrity --model FILE [--trials N] [--rate R] [--seed S]
//       Corrupt copies of the stored blob (single-bit sweep plus the
//       Table-3 flip rates, or just --rate) and report how often the
//       loader detects the damage. RHD2 blobs must detect every
//       corrupted copy; exits nonzero if one slips through.
//   serve-bench --dataset NAME [--model FILE] [--workers N] [--rounds R]
//           [--rate R --mode random|targeted|clustered]
//           [--batch B] [--dimension D]
//       Drive the concurrent serving runtime (robusthd::serve) over the
//       test queries, optionally injecting faults so the background
//       scrubber repairs the model while it serves; prints a throughput/
//       latency table (see also bench/serve_throughput.cpp).
//   adversary --dataset NAME [--model FILE] [--budget N] [--queries N]
//           [--epsilon E] [--waves W] [--defend 0|1] [--workers N]
//           [--floor A] [--dimension D]
//       Run the input-space attack suite (robusthd::adversary) against a
//       live server: greedy bit-flip attacks on encoded queries at
//       --budget flips, genetic feature-space attacks through the
//       encoder inside an L-inf --epsilon ball, then a PoisonCampaign of
//       --waves waves of high-confidence poison queries against the
//       scrubber's trust ring. --defend 1 (default) arms the enforcing
//       TrustGate; --defend 0 runs it in shadow mode to measure the
//       undefended damage. With --floor, exits nonzero when the final
//       canary accuracy is below it (see bench/adversarial_attacks.cpp
//       and docs/resilience.md).
//   chaos   --dataset NAME [--model FILE] [--workers N] [--seconds S]
//           [--rate R] [--mode random|targeted|clustered] [--steps N]
//           [--floor A] [--dimension D]
//       Live-fire soak: serve traffic while an in-process ChaosAgent
//       attacks the published model under a rate budget, the plane
//       health sentinel quarantines damaged chunks, and the scrubber
//       repairs from trusted traffic (docs/resilience.md). Prints the
//       steady-state accuracy and degradation-ladder activity; with
//       --floor, exits nonzero when the final canary accuracy is below
//       it (see also bench/chaos_soak.cpp).
//   fleet-serve --dataset NAME [--model FILE] [--shards N] [--workers N]
//           [--port P] [--seconds S] [--dimension D]
//       Stand up a sharded fleet (robusthd::fleet) behind its TCP front
//       end on loopback, run a wire self-test against the held-out
//       queries, then serve for --seconds (0 = until killed) and print
//       the per-shard health/repair counters (docs/fleet.md).
//   fleet-bench [--shards N] [--clients N] [--seconds S] [--dimension D]
//           [--rate R] [--gate G] [--net-delay-ms MS] [--net-drop R]
//           [--net-reset R] [--partition I]
//       Closed-loop loopback throughput: measures 1 shard vs --shards
//       shards under --clients client threads per shard, prints QPS /
//       latency / repair counters and the core-aware weak-scaling
//       efficiency; with --gate, exits nonzero below the floor (the
//       same measurement as bench/fleet_throughput.cpp). Any --net-*
//       flag routes the traffic through the in-process NetChaos proxy
//       (fleet/netchaos.hpp): --net-delay-ms holds every chunk,
//       --net-drop / --net-reset silently swallow or RST-kill at the
//       given per-chunk probability, and --partition I blackholes
//       shard I at the midpoint of the multi-shard run so the client's
//       failover and retry machinery shows up in the numbers.
//
// Flags are strict: every flag takes exactly one value, and a flag a
// subcommand does not document is rejected (run `robusthd <cmd> --help`).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "robusthd/robusthd.hpp"
#include "robusthd/util/timer.hpp"

using namespace robusthd;

namespace {

/// Everything the driver knows about one subcommand: the one-line
/// summary for the global usage screen, the flag reference for
/// `robusthd <cmd> --help`, and the exact set of flags it accepts.
struct CommandSpec {
  const char* name;
  const char* summary;
  const char* flags_help;
  std::vector<const char*> flags;
};

/// Flags understood by every command that loads a dataset (load_split).
#define ROBUSTHD_SPLIT_FLAGS \
  "dataset", "train", "test", "seed", "csv", "label-col", "header", "split"

const std::vector<CommandSpec>& command_specs() {
  static const std::vector<CommandSpec> specs = {
      {"train", "train on a dataset and save the model",
       "  --dataset NAME | --csv FILE   data source (synthetic benchmark or CSV)\n"
       "  --out FILE                    where to save the model (required)\n"
       "  --dimension D --levels L      encoder shape (default 10000 x 32)\n"
       "  --precision B                 bits per counter, 1-8 (default 1)\n"
       "  --train N --test N --seed S   synthetic split caps\n"
       "  --label-col I --header 1 --split 0.8   CSV options\n",
       {"out", "dimension", "levels", "precision", ROBUSTHD_SPLIT_FLAGS}},
      {"eval", "load a model and report accuracy",
       "  --model FILE                  stored model (required)\n"
       "  --dataset NAME | --csv FILE   evaluation data\n"
       "  --test N --seed S             synthetic split caps\n"
       "  --label-col I --header 1 --split 0.8   CSV options\n",
       {"model", ROBUSTHD_SPLIT_FLAGS}},
      {"attack", "inject bit flips into a stored model",
       "  --model FILE                  stored model (required)\n"
       "  --dataset NAME | --csv FILE   evaluation data\n"
       "  --rate R                      fraction of stored bits (default 0.10)\n"
       "  --mode random|targeted|clustered\n"
       "  --out FILE                    save the attacked model\n",
       {"model", "rate", "mode", "out", ROBUSTHD_SPLIT_FLAGS}},
      {"recover", "run self-recovery over unlabeled queries",
       "  --model FILE                  stored (attacked) model (required)\n"
       "  --dataset NAME | --csv FILE   query source\n"
       "  --epochs E                    replay epochs (default 10)\n"
       "  --out FILE                    save the recovered model\n",
       {"model", "epochs", "out", ROBUSTHD_SPLIT_FLAGS}},
      {"serve-bench", "drive the concurrent serving runtime",
       "  --dataset NAME | --csv FILE   traffic source\n"
       "  --model FILE                  serve a stored model (else train one)\n"
       "  --workers N --batch B         server shape (default 4 x 16)\n"
       "  --rounds R                    passes over the test queries\n"
       "  --rate R --mode M             optional fault injection\n"
       "  --dimension D                 trained-model dimension (default 4000)\n"
       "  --persist-dir DIR             journal publications into a WAL dir\n"
       "                                (recovers from it when state exists)\n",
       {"model", "workers", "rounds", "rate", "mode", "batch", "dimension",
        "persist-dir", ROBUSTHD_SPLIT_FLAGS}},
      {"chaos", "live-fire soak with in-service chaos + recovery",
       "  --dataset NAME | --csv FILE   traffic source\n"
       "  --model FILE                  serve a stored model (else train one)\n"
       "  --workers N --seconds S       soak shape (default 4 x 5s)\n"
       "  --rate R --mode M --steps N   chaos campaign budget\n"
       "  --floor A                     exit nonzero below this canary accuracy\n"
       "  --dimension D                 trained-model dimension (default 4000)\n",
       {"model", "workers", "seconds", "rate", "mode", "steps", "floor",
        "dimension", ROBUSTHD_SPLIT_FLAGS}},
      {"adversary", "input-space attacks + poison campaign vs a live server",
       "  --dataset NAME | --csv FILE   data source\n"
       "  --model FILE                  attack a stored model (else train one)\n"
       "  --budget N                    bit-flip Hamming budget (default 128)\n"
       "  --queries N                   bit-flip sample size (default 40)\n"
       "  --epsilon E                   genetic L-inf ball (default 0.10)\n"
       "  --waves W                     poison campaign waves (default 12)\n"
       "  --defend 0|1                  1 = enforcing trust gate (default),\n"
       "                                0 = shadow mode (measure the damage)\n"
       "  --workers N                   server worker threads (default 4)\n"
       "  --floor A                     exit nonzero below this canary accuracy\n"
       "  --dimension D                 trained-model dimension (default 4000)\n",
       {"model", "budget", "queries", "epsilon", "waves", "defend", "workers",
        "floor", "dimension", ROBUSTHD_SPLIT_FLAGS}},
      {"fleet-serve", "serve a sharded fleet over TCP",
       "  --dataset NAME | --csv FILE   model/training source\n"
       "  --model FILE                  serve a stored model (else train one)\n"
       "  --shards N --workers N        fleet shape (default 2 shards x 1)\n"
       "  --port P                      first port; shard i on P+i (default\n"
       "                                ephemeral — the actual ports are printed)\n"
       "  --seconds S                   serve duration, 0 = forever (default 5)\n"
       "  --dimension D                 trained-model dimension (default 4000)\n"
       "  --persist-dir DIR             per-shard WAL dirs under DIR/shard-<i>\n",
       {"model", "shards", "workers", "port", "seconds", "dimension",
        "persist-dir", ROBUSTHD_SPLIT_FLAGS}},
      {"fleet-bench", "closed-loop fleet throughput over loopback",
       "  --shards N                    shard count to compare vs 1 (default 2)\n"
       "  --clients N                   client threads per shard (default 2)\n"
       "  --seconds S                   measured seconds per point (default 2)\n"
       "  --dimension D                 hypervector dimension (default 2048)\n"
       "  --rate R                      mid-run bit-flip rate (default 0.05)\n"
       "  --gate G                      efficiency floor, exit nonzero below\n"
       "  --seed S                      world seed\n"
       "  --net-delay-ms MS             NetChaos: hold every chunk MS ms\n"
       "  --net-drop R                  NetChaos: drop chunks at rate R [0,1]\n"
       "  --net-reset R                 NetChaos: inject RSTs at rate R [0,1]\n"
       "  --partition I                 NetChaos: blackhole shard I mid-run\n",
       {"shards", "clients", "seconds", "dimension", "rate", "gate", "seed",
        "net-delay-ms", "net-drop", "net-reset", "partition"}},
      {"info", "print a stored model's shape and format",
       "  --model FILE                  stored model (required)\n",
       {"model"}},
      {"wal-recover", "replay a persist directory (kill-9 recovery)",
       "  --dir DIR                     persist directory (required)\n"
       "  --out FILE                    save the recovered model as RHD2\n",
       {"dir", "out"}},
      {"integrity", "corrupt stored blobs, verify detection",
       "  --model FILE                  stored model (required)\n"
       "  --trials N                    corrupted copies per cell (default 200)\n"
       "  --rate R                      test only this flip rate\n"
       "  --seed S                      corruption seed\n",
       {"model", "trials", "rate", "seed"}},
  };
  return specs;
}

#undef ROBUSTHD_SPLIT_FLAGS

const CommandSpec* find_spec(const std::string& name) {
  for (const auto& spec : command_specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

void usage_for(const CommandSpec& spec) {
  std::fprintf(stderr, "usage: robusthd %s [--flag value]...\n%s\n%s",
               spec.name, spec.summary, spec.flags_help);
}

/// Strict --flag VALUE parser: every flag takes exactly one value, and
/// only the subcommand's documented flags are accepted.
class Args {
 public:
  Args(int argc, char** argv, const CommandSpec& spec) {
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
        usage_for(spec);
        std::exit(2);
      }
      const std::string key = argv[i] + 2;
      if (key == "help") {
        usage_for(spec);
        std::exit(0);
      }
      if (std::find_if(spec.flags.begin(), spec.flags.end(),
                       [&](const char* f) { return key == f; }) ==
          spec.flags.end()) {
        std::fprintf(stderr, "unknown flag --%s for %s\n", key.c_str(),
                     spec.name);
        usage_for(spec);
        std::exit(2);
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag --%s requires a value\n", key.c_str());
        usage_for(spec);
        std::exit(2);
      }
      values_[key] = argv[++i];
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::string require(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }

  long number(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atol(it->second.c_str());
  }

  double real(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
};

data::Split load_split(const Args& args) {
  const auto csv = args.get("csv", "");
  if (!csv.empty()) {
    data::CsvOptions options;
    options.label_column = static_cast<int>(args.number("label-col", -1));
    options.has_header = args.number("header", 0) != 0;
    const auto dataset = data::load_csv(csv, options);
    auto split = data::train_test_split(
        dataset, args.real("split", 0.8),
        static_cast<std::uint64_t>(args.number("seed", 0x5eed)));
    data::normalize_minmax(split);
    return split;
  }
  const auto name = args.require("dataset");
  const auto spec = data::scaled(
      data::dataset_by_name(name),
      static_cast<std::size_t>(args.number("train", 2000)),
      static_cast<std::size_t>(args.number("test", 600)));
  return data::make_synthetic(
      spec, static_cast<std::uint64_t>(args.number("seed", 0x5eed)));
}

fault::AttackMode parse_mode(const std::string& mode) {
  if (mode == "random") return fault::AttackMode::kRandom;
  if (mode == "targeted") return fault::AttackMode::kTargeted;
  if (mode == "clustered") return fault::AttackMode::kClustered;
  std::fprintf(stderr, "unknown attack mode: %s\n", mode.c_str());
  std::exit(2);
}

int cmd_train(const Args& args) {
  const auto split = load_split(args);
  core::HdcClassifierConfig config;
  config.encoder.dimension =
      static_cast<std::size_t>(args.number("dimension", 10000));
  config.encoder.levels = static_cast<std::size_t>(args.number("levels", 32));
  config.model.precision_bits =
      static_cast<unsigned>(args.number("precision", 1));

  util::Timer timer;
  auto clf = core::HdcClassifier::train(split.train, config);
  const double train_acc = clf.evaluate(split.train);
  const double test_acc = clf.evaluate(split.test);
  std::printf("trained in %.1fs: train %.2f%%, test %.2f%%\n",
              timer.seconds(), train_acc * 100.0, test_acc * 100.0);

  const auto out = args.require("out");
  core::save_model(clf, out);
  std::printf("saved %s (%zu classes x D=%zu, %u-bit)\n", out.c_str(),
              clf.model().num_classes(), clf.model().dimension(),
              clf.model().precision_bits());
  return 0;
}

int cmd_eval(const Args& args) {
  auto clf = core::load_model(args.require("model"));
  const auto split = load_split(args);
  std::printf("test accuracy %.2f%%\n", clf.evaluate(split.test) * 100.0);
  return 0;
}

int cmd_attack(const Args& args) {
  auto clf = core::load_model(args.require("model"));
  const auto split = load_split(args);
  const double clean = clf.evaluate(split.test);

  util::Xoshiro256 rng(static_cast<std::uint64_t>(args.number("seed", 1)));
  auto regions = clf.memory_regions();
  const auto report = fault::BitFlipInjector::inject(
      regions, args.real("rate", 0.10),
      parse_mode(args.get("mode", "random")), rng);
  const double attacked = clf.evaluate(split.test);
  std::printf("flipped %zu/%zu bits (%.2f%%): accuracy %.2f%% -> %.2f%% "
              "(quality loss %.2f%%)\n",
              report.flipped, report.total_bits, report.rate() * 100.0,
              clean * 100.0, attacked * 100.0, (clean - attacked) * 100.0);

  const auto out = args.get("out", "");
  if (!out.empty()) {
    core::save_model(clf, out);
    std::printf("saved attacked model to %s\n", out.c_str());
  }
  return 0;
}

int cmd_recover(const Args& args) {
  auto clf = core::load_model(args.require("model"));
  const auto split = load_split(args);
  const double before = clf.evaluate(split.test);

  clf.enable_recovery({});
  const auto epochs = args.number("epochs", 10);
  for (long e = 0; e < epochs; ++e) {
    for (std::size_t i = 0; i < split.test.size(); ++i) {
      clf.predict_and_recover(split.test.sample(i));
    }
  }
  const double after = clf.evaluate(split.test);
  std::printf("recovery over %ld epochs (%zu updates, %zu bits): accuracy "
              "%.2f%% -> %.2f%%\n",
              epochs, clf.recovery_engine()->total_updates(),
              clf.recovery_engine()->total_substituted_bits(),
              before * 100.0, after * 100.0);

  const auto out = args.get("out", "");
  if (!out.empty()) {
    core::save_model(clf, out);
    std::printf("saved recovered model to %s\n", out.c_str());
  }
  return 0;
}

int cmd_serve_bench(const Args& args) {
  const auto split = load_split(args);

  // Either load a stored model (its encoder re-encodes the queries) or
  // train a fresh one at a serving-friendly dimension.
  model::HdcModel model;
  std::vector<hv::BinVec> queries;
  const auto model_file = args.get("model", "");
  if (!model_file.empty()) {
    auto clf = core::load_model(model_file);
    queries = clf.encoder().encode_all(split.test);
    model = clf.model();
  } else {
    core::HdcClassifierConfig config;
    config.encoder.dimension =
        static_cast<std::size_t>(args.number("dimension", 4000));
    auto clf = core::HdcClassifier::train(split.train, config);
    queries = clf.encoder().encode_all(split.test);
    model = clf.model();
  }

  serve::ServerConfig config;
  config.worker_threads = static_cast<std::size_t>(args.number("workers", 4));
  config.max_batch = static_cast<std::size_t>(args.number("batch", 16));
  if (model.precision_bits() != 1) {
    std::printf("note: %u-bit model, serving without the recovery "
                "scrubber (substitution is binary-only)\n",
                model.precision_bits());
    config.enable_recovery = false;
  }
  const auto persist_dir = args.get("persist-dir", "");
  config.persist.dir = persist_dir;
  std::unique_ptr<serve::Server> server_holder;
  if (!persist_dir.empty() && persist::has_state(persist_dir)) {
    // A previous run left durable state: resume it (the trained/loaded
    // model above only seeds a first run).
    server_holder = serve::Server::recover(persist_dir, config);
    const auto& rs = server_holder->replay_stats();
    std::printf("recovered from %s: %zu segments, %zu records, %zu epochs"
                "%s, state crc %s\n",
                persist_dir.c_str(), static_cast<std::size_t>(rs.segments),
                static_cast<std::size_t>(rs.replay_records),
                static_cast<std::size_t>(rs.epochs_applied),
                rs.torn_tail ? ", torn tail discarded" : "",
                rs.state_crc_ok ? "OK" : "MISMATCH");
  } else {
    server_holder =
        std::make_unique<serve::Server>(std::move(model), config);
  }
  serve::Server& server = *server_holder;

  const double rate = args.real("rate", 0.0);
  if (rate > 0.0) {
    server.inject_faults(rate, parse_mode(args.get("mode", "clustered")),
                         static_cast<std::uint64_t>(args.number("seed", 1)));
    server.drain();
  }

  const auto rounds = args.number("rounds", 10);
  util::Timer timer;
  std::size_t correct = 0;
  for (long r = 0; r < rounds; ++r) {
    const auto responses = server.predict_all(queries);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (responses[i].predicted == split.test.labels[i]) ++correct;
    }
  }
  const double elapsed = timer.seconds();
  server.drain();
  if (!persist_dir.empty()) server.persist_barrier();
  const auto stats = server.stats();
  server.shutdown();

  const auto answered = static_cast<double>(stats.completed);
  std::printf("served %zu queries with %zu workers in %.2fs: %.0f qps\n",
              static_cast<std::size_t>(stats.completed),
              server.config().worker_threads, elapsed, answered / elapsed);
  std::printf("latency p50 %.3f ms, p99 %.3f ms; mean batch %.2f\n",
              stats.end_to_end.p50_ns / 1e6, stats.end_to_end.p99_ns / 1e6,
              stats.mean_batch);
  std::printf("accuracy %.2f%%; trusted %zu, scrub processed %zu, "
              "repairs %zu (%zu bits), snapshots published %zu\n",
              100.0 * static_cast<double>(correct) / answered,
              static_cast<std::size_t>(stats.trusted),
              static_cast<std::size_t>(stats.scrub_processed),
              static_cast<std::size_t>(stats.scrub_repairs),
              static_cast<std::size_t>(stats.scrub_substituted_bits),
              static_cast<std::size_t>(stats.snapshots_published));
  std::printf("trust ring drops %zu, scrub resyncs %zu, reloads %zu, "
              "integrity failures %zu\n",
              static_cast<std::size_t>(stats.trust_drops),
              static_cast<std::size_t>(stats.scrub_resyncs),
              static_cast<std::size_t>(stats.reloads),
              static_cast<std::size_t>(stats.integrity_failures));
  std::printf("resilience: canary runs %zu, quarantined chunks %zu, "
              "degraded %zu, abstained %zu, breaker trips %zu, "
              "reload retries %zu\n",
              static_cast<std::size_t>(stats.canary_runs),
              stats.quarantined_chunks,
              static_cast<std::size_t>(stats.degraded_responses),
              static_cast<std::size_t>(stats.abstained_responses),
              static_cast<std::size_t>(stats.breaker_trips),
              static_cast<std::size_t>(stats.reload_retries));
  if (rate > 0.0) {
    std::printf("faults injected: %zu\n",
                static_cast<std::size_t>(stats.faults_injected));
  }
  if (!persist_dir.empty()) {
    std::printf("durability: epochs closed %zu, wal bytes %zu, "
                "rotations %zu, compactions %zu, io errors %zu\n",
                static_cast<std::size_t>(stats.epochs_closed),
                static_cast<std::size_t>(stats.wal_bytes),
                static_cast<std::size_t>(stats.wal_rotations),
                static_cast<std::size_t>(stats.wal_compactions),
                static_cast<std::size_t>(stats.persist_io_errors));
  }
  return 0;
}

int cmd_chaos(const Args& args) {
  const auto split = load_split(args);

  model::HdcModel model;
  std::vector<hv::BinVec> queries;
  const auto model_file = args.get("model", "");
  if (!model_file.empty()) {
    auto clf = core::load_model(model_file);
    queries = clf.encoder().encode_all(split.test);
    model = clf.model();
  } else {
    core::HdcClassifierConfig config;
    config.encoder.dimension =
        static_cast<std::size_t>(args.number("dimension", 4000));
    auto clf = core::HdcClassifier::train(split.train, config);
    queries = clf.encoder().encode_all(split.test);
    model = clf.model();
  }
  if (model.precision_bits() != 1) {
    std::fprintf(stderr,
                 "chaos requires a binary (1-bit) model: the recovery "
                 "ladder is substitution-based\n");
    return 2;
  }

  // Hold out canaries for the sentinel; serve the rest as traffic.
  const std::size_t canary_count =
      std::min<std::size_t>(150, queries.size() / 3);
  serve::ServerConfig config;
  config.worker_threads = static_cast<std::size_t>(args.number("workers", 4));
  config.max_batch = 16;
  config.sentinel.enabled = true;
  config.sentinel.period = std::chrono::milliseconds(10);
  config.sentinel.chunks = config.scrubber.recovery.chunks;
  config.canaries.assign(queries.begin(), queries.begin() + canary_count);
  config.canary_labels.assign(split.test.labels.begin(),
                              split.test.labels.begin() + canary_count);
  const double seconds = args.real("seconds", 5.0);
  config.chaos.enabled = true;
  config.chaos.rate = args.real("rate", 0.06);
  config.chaos.mode = parse_mode(args.get("mode", "random"));
  config.chaos.steps_to_full =
      static_cast<std::size_t>(args.number("steps", 250));
  config.chaos.period = std::chrono::microseconds(static_cast<long>(
      seconds * 0.6 * 1e6 /
      static_cast<double>(config.chaos.steps_to_full)));

  std::vector<hv::BinVec> traffic(queries.begin() + canary_count,
                                  queries.end());
  std::vector<int> traffic_labels(split.test.labels.begin() + canary_count,
                                  split.test.labels.end());

  serve::Server server(std::move(model), config);
  util::Timer timer;
  std::size_t scored = 0, correct = 0, shed = 0;
  while (timer.seconds() < seconds) {
    const auto responses = server.predict_all(traffic);
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (responses[i].abstained) {
        ++shed;
        continue;
      }
      ++scored;
      if (responses[i].predicted == traffic_labels[i]) ++correct;
    }
  }
  const double elapsed = timer.seconds();
  server.drain();
  const auto stats = server.stats();
  server.shutdown();

  std::printf("soak %.1fs at attack rate %.3f (%s): %.0f qps\n", elapsed,
              config.chaos.rate, args.get("mode", "random").c_str(),
              static_cast<double>(scored + shed) / elapsed);
  std::printf("traffic accuracy %.2f%% over %zu scored (%zu abstained)\n",
              scored == 0 ? 0.0
                          : 100.0 * static_cast<double>(correct) /
                                static_cast<double>(scored),
              scored, shed);
  std::printf("chaos: %zu ticks, %zu flips scheduled\n",
              static_cast<std::size_t>(stats.chaos_ticks),
              static_cast<std::size_t>(stats.chaos_flips));
  std::printf("sentinel: %zu canary runs, effective canary accuracy "
              "%.2f%%, %zu chunks quarantined, %zu priority marks\n",
              static_cast<std::size_t>(stats.canary_runs),
              100.0 * stats.canary_accuracy, stats.quarantined_chunks,
              static_cast<std::size_t>(stats.priority_marks));
  std::printf("ladder: %zu degraded, %zu abstained, %zu breaker trips, "
              "%zu reload retries; scrub repairs %zu (%zu bits)\n",
              static_cast<std::size_t>(stats.degraded_responses),
              static_cast<std::size_t>(stats.abstained_responses),
              static_cast<std::size_t>(stats.breaker_trips),
              static_cast<std::size_t>(stats.reload_retries),
              static_cast<std::size_t>(stats.scrub_repairs),
              static_cast<std::size_t>(stats.scrub_substituted_bits));

  const double floor = args.real("floor", 0.0);
  if (floor > 0.0 && stats.canary_accuracy < floor) {
    std::printf("FAIL: canary accuracy %.4f below floor %.4f\n",
                stats.canary_accuracy, floor);
    return 1;
  }
  return 0;
}

int cmd_adversary(const Args& args) {
  const auto split = load_split(args);

  auto clf = [&] {
    const auto model_file = args.get("model", "");
    if (!model_file.empty()) return core::load_model(model_file);
    core::HdcClassifierConfig config;
    config.encoder.dimension =
        static_cast<std::size_t>(args.number("dimension", 4000));
    return core::HdcClassifier::train(split.train, config);
  }();
  const auto& model = clf.model();
  const auto& encoder = clf.encoder();
  const auto queries = encoder.encode_all(split.test);
  if (model.precision_bits() != 1) {
    std::fprintf(stderr,
                 "adversary requires a binary (1-bit) model: the poison "
                 "campaign forges substitution evidence\n");
    return 2;
  }

  // Bit-flip attack on encoded queries.
  const auto budget = static_cast<std::size_t>(args.number("budget", 128));
  const std::size_t sample_count = std::min<std::size_t>(
      static_cast<std::size_t>(args.number("queries", 40)), queries.size());
  const std::vector<hv::BinVec> sample(queries.begin(),
                                       queries.begin() + sample_count);
  const auto rates = adversary::bit_flip_success(model, sample, budget, 0.88);
  std::printf("bit-flip @ %zu flips over %zu queries: %.1f%% flipped, "
              "%.1f%% still trusted, mean %.1f flips\n",
              budget, sample_count, 100.0 * rates.any, 100.0 * rates.confident,
              rates.mean_flips);

  // Genetic feature-space attack through the encoder.
  const double epsilon = args.real("epsilon", 0.10);
  const std::size_t genetic_count =
      std::min<std::size_t>(8, split.test.features.rows());
  std::size_t genetic_wins = 0;
  for (std::size_t i = 0; i < genetic_count; ++i) {
    adversary::GeneticConfig config;
    config.epsilon = epsilon;
    config.seed = 0xadf00d + i;
    const auto result = adversary::genetic_feature_attack(
        model, encoder, split.test.features.row(i), config);
    if (result.success) ++genetic_wins;
  }
  std::printf("genetic @ epsilon %.2f over %zu queries: %.1f%% flipped\n",
              epsilon, genetic_count,
              100.0 * static_cast<double>(genetic_wins) /
                  static_cast<double>(genetic_count));

  // Poison campaign against a live server.
  const bool defend = args.number("defend", 1) != 0;
  const std::size_t canary_count =
      std::min<std::size_t>(150, queries.size() / 3);
  serve::ServerConfig config;
  config.worker_threads = static_cast<std::size_t>(args.number("workers", 4));
  config.max_batch = 16;
  config.scrubber.gate.enabled = true;
  config.scrubber.gate.enforce = defend;
  config.canaries.assign(queries.begin(), queries.begin() + canary_count);
  config.canary_labels.assign(split.test.labels.begin(),
                              split.test.labels.begin() + canary_count);
  config.sentinel.enabled = true;
  config.sentinel.period = std::chrono::milliseconds(10);
  config.sentinel.chunks = config.scrubber.recovery.chunks;

  std::vector<hv::BinVec> traffic(queries.begin() + canary_count,
                                  queries.end());
  adversary::PoisonConfig poison;
  poison.chunks = config.scrubber.recovery.chunks;
  poison.waves = static_cast<std::size_t>(args.number("waves", 12));

  const model::HdcModel blessed = model;
  serve::Server server(model, config);
  std::ignore = server.predict_all(traffic);  // natural traffic warms the
  server.drain();                             // engine's per-class gates
  const auto before = server.metrics();

  adversary::PoisonCampaign campaign(blessed, poison);
  const auto report = campaign.run(server);
  server.drain();
  const serve::ServerStats stats(server.metrics() - before);
  const auto wrong =
      adversary::PoisonCampaign::wrong_bits(blessed, *server.current_model());
  server.shutdown();

  std::printf("poison campaign (%s): %zu sent, %zu answered, %zu trusted\n",
              defend ? "defended" : "shadow",
              static_cast<std::size_t>(report.sent),
              static_cast<std::size_t>(report.answered),
              static_cast<std::size_t>(report.trusted));
  std::printf("gate: %zu poisoned offers flagged, %zu rejected; "
              "%zu suspect substitutions, %zu wrong bits vs blessed\n",
              static_cast<std::size_t>(stats.poisoned_offers),
              static_cast<std::size_t>(stats.gate_rejects),
              static_cast<std::size_t>(stats.suspect_substitutions),
              static_cast<std::size_t>(wrong));
  std::printf("sentinel: %zu canary runs, effective canary accuracy %.2f%%, "
              "%zu chunks quarantined\n",
              static_cast<std::size_t>(stats.canary_runs),
              100.0 * stats.canary_accuracy, stats.quarantined_chunks);

  const double floor = args.real("floor", 0.0);
  if (floor > 0.0 && stats.canary_accuracy < floor) {
    std::printf("FAIL: canary accuracy %.4f below floor %.4f\n",
                stats.canary_accuracy, floor);
    return 1;
  }
  return 0;
}

std::vector<std::byte> read_blob(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open model file: " + path);
  const auto size = static_cast<std::size_t>(in.tellg());
  std::vector<std::byte> blob(size);
  in.seekg(0);
  in.read(reinterpret_cast<char*>(blob.data()),
          static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("cannot read model file: " + path);
  return blob;
}

int cmd_info(const Args& args) {
  const auto path = args.require("model");
  const auto blob = read_blob(path);
  const auto info = core::inspect(blob);
  std::printf("format RHD%u (%s)\n", info.version,
              info.integrity_checked ? "CRC32C integrity-checked"
                                     : "legacy, no integrity checks");
  auto clf = core::deserialize(blob);
  const auto& model = clf.model();
  std::printf("RobustHD model: %zu classes, D=%zu, %u-bit precision, "
              "%zu features, %zu levels, encoder seed %#zx\n",
              model.num_classes(), model.dimension(),
              model.precision_bits(), clf.encoder().feature_count(),
              clf.encoder_config().levels,
              static_cast<std::size_t>(clf.encoder_config().seed));
  std::size_t bits = 0;
  for (const auto& region : clf.memory_regions()) bits += region.bit_count();
  std::printf("stored model size: %zu bits (%.1f KiB)\n", bits,
              static_cast<double>(bits) / 8192.0);
  return 0;
}

int cmd_integrity(const Args& args) {
  const auto blob = read_blob(args.require("model"));
  const auto info = core::inspect(blob);
  std::printf("format RHD%u, %zu bytes, %s\n", info.version, blob.size(),
              info.integrity_checked ? "integrity-checked"
                                     : "legacy (no CRCs)");

  const auto trials = static_cast<std::size_t>(args.number("trials", 200));
  util::Xoshiro256 rng(static_cast<std::uint64_t>(args.number("seed", 1)));

  bool perfect = true;
  const auto report = [&](const char* label,
                          const core::IntegrityCell& cell) {
    std::printf("  %-12s corrupted %4zu/%zu trials, detected %4zu "
                "(P[detect] = %.4f)\n",
                label, cell.corrupted, cell.trials, cell.detected,
                cell.detection_rate());
    if (cell.corrupted > 0 && cell.detection_rate() < 1.0) perfect = false;
  };

  report("single bit", core::storage_single_bit(blob, trials, rng));
  const double only = args.real("rate", 0.0);
  if (only > 0.0) {
    report("--rate", core::storage_roundtrip(blob, only, trials, rng));
  } else {
    for (const double rate : {0.0001, 0.001, 0.01, 0.05, 0.10}) {
      char label[32];
      std::snprintf(label, sizeof label, "rate %.4f", rate);
      report(label, core::storage_roundtrip(blob, rate, trials, rng));
    }
  }

  if (info.integrity_checked && !perfect) {
    std::printf("FAIL: corrupted blob slipped past the integrity checks\n");
    return 1;
  }
  std::printf(info.integrity_checked
                  ? "PASS: every corrupted copy was detected\n"
                  : "note: legacy format — low detection is expected; "
                    "re-save with `robusthd train` for RHD2\n");
  return 0;
}

int cmd_wal_recover(const Args& args) {
  const auto dir = args.require("dir");
  const auto rec = persist::recover_dir(dir);
  if (!rec) {
    std::fprintf(stderr, "no usable persisted state in %s\n", dir.c_str());
    return 1;
  }
  const auto& rs = rec->stats;
  std::printf("recovered generation %zu: D=%zu, %u classes, %u-bit\n",
              static_cast<std::size_t>(rec->generation),
              rec->base_info.dimension, rec->base_info.num_classes,
              rec->base_info.precision_bits);
  std::printf("replay: %zu segments (%zu bytes), %zu records committed "
              "across %zu epochs, %zu discarded%s\n",
              static_cast<std::size_t>(rs.segments),
              static_cast<std::size_t>(rs.wal_bytes),
              static_cast<std::size_t>(rs.replay_records),
              static_cast<std::size_t>(rs.epochs_applied),
              static_cast<std::size_t>(rs.discarded_records),
              rs.torn_tail ? " (torn tail)" : "");
  std::printf("state crc: %s\n", rs.state_crc_ok ? "OK" : "MISMATCH");
  if (rec->engine_state) {
    std::printf("engine state: %zu updates, %zu substituted bits%s\n",
                static_cast<std::size_t>(rec->engine_state->total_updates),
                static_cast<std::size_t>(
                    rec->engine_state->total_substituted_bits),
                rec->engine_state->frozen ? " (frozen)" : "");
  }
  const auto out = args.get("out", "");
  if (!out.empty()) {
    core::save_model(rec->model, out);
    std::printf("saved recovered model to %s\n", out.c_str());
  }
  return rs.state_crc_ok ? 0 : 1;
}

/// Trained model + encoded queries for the fleet commands (same
/// load-or-train convention as serve-bench/chaos).
struct FleetWorld {
  model::HdcModel model;
  std::vector<hv::BinVec> queries;
  std::vector<int> labels;
};

FleetWorld fleet_world(const Args& args) {
  const auto split = load_split(args);
  FleetWorld w;
  const auto model_file = args.get("model", "");
  if (!model_file.empty()) {
    auto clf = core::load_model(model_file);
    w.queries = clf.encoder().encode_all(split.test);
    w.model = clf.model();
  } else {
    core::HdcClassifierConfig config;
    config.encoder.dimension =
        static_cast<std::size_t>(args.number("dimension", 4000));
    auto clf = core::HdcClassifier::train(split.train, config);
    w.queries = clf.encoder().encode_all(split.test);
    w.model = clf.model();
  }
  w.labels = split.test.labels;
  return w;
}

fleet::Fleet make_fleet(const model::HdcModel& model, std::size_t shards,
                        std::size_t workers,
                        const std::string& persist_dir = "") {
  std::vector<model::HdcModel> models;
  fleet::FleetConfig config;
  config.persist_dir = persist_dir;
  for (std::size_t s = 0; s < shards; ++s) {
    models.push_back(model);
    fleet::ShardConfig shard;
    shard.server.worker_threads = workers;
    shard.server.enable_recovery = model.precision_bits() == 1;
    config.shards.push_back(std::move(shard));
  }
  return fleet::Fleet(std::move(models), std::move(config));
}

void print_fleet_stats(const fleet::FleetStats& stats) {
  std::printf("fleet: completed %zu, rejected %zu, failovers %zu, "
              "shed (group down) %zu\n",
              static_cast<std::size_t>(stats.total.completed),
              static_cast<std::size_t>(stats.total.rejected),
              static_cast<std::size_t>(stats.failovers),
              static_cast<std::size_t>(stats.shed_unrouteable));
  for (std::size_t s = 0; s < stats.shards.size(); ++s) {
    const auto& sh = stats.shards[s];
    std::printf("  shard %zu: completed %zu, repairs %zu (%zu bits), "
                "quarantined %zu, degraded %zu, abstained %zu, "
                "breaker %s, p99 %.3f ms\n",
                s, static_cast<std::size_t>(sh.completed),
                static_cast<std::size_t>(sh.scrub_repairs),
                static_cast<std::size_t>(sh.scrub_substituted_bits),
                sh.quarantined_chunks,
                static_cast<std::size_t>(sh.degraded_responses),
                static_cast<std::size_t>(sh.abstained_responses),
                sh.breaker_open ? "OPEN" : "closed",
                sh.end_to_end.p99_ns / 1e6);
  }
}

int cmd_fleet_serve(const Args& args) {
  const auto w = fleet_world(args);
  const auto shards =
      static_cast<std::size_t>(std::max(1L, args.number("shards", 2)));
  const auto workers =
      static_cast<std::size_t>(std::max(1L, args.number("workers", 1)));
  auto fleet = make_fleet(w.model, shards, workers,
                          args.get("persist-dir", ""));

  fleet::FrontendConfig frontend_config;
  frontend_config.base_port =
      static_cast<std::uint16_t>(args.number("port", 0));
  fleet::Frontend frontend(fleet, frontend_config);
  frontend.start();
  std::printf("fleet up: %zu shards x %zu workers, D=%zu\n", shards, workers,
              fleet.dimension());
  const auto ports = frontend.ports();
  for (std::size_t s = 0; s < ports.size(); ++s) {
    std::printf("  shard %zu listening on 127.0.0.1:%u\n", s, ports[s]);
  }

  // Loopback self-test: the wire path must answer exactly like the model.
  {
    std::vector<fleet::Endpoint> endpoints;
    std::vector<std::string> groups;
    for (const auto port : ports) {
      endpoints.push_back({"127.0.0.1", port});
      groups.push_back("default");
    }
    fleet::Client client(std::move(endpoints), std::move(groups));
    const std::size_t probes = std::min<std::size_t>(64, w.queries.size());
    std::size_t ok = 0, correct = 0;
    for (std::size_t i = 0; i < probes; ++i) {
      const auto r = client.predict(i, w.queries[i]);
      if (!r.ok) continue;
      ++ok;
      if (r.predicted == w.labels[i]) ++correct;
    }
    std::printf("self-test: %zu/%zu probes answered, accuracy %.2f%%\n", ok,
                probes,
                ok == 0 ? 0.0
                        : 100.0 * static_cast<double>(correct) /
                              static_cast<double>(ok));
    if (ok != probes) {
      frontend.stop();
      fleet.shutdown();
      return 1;
    }
  }

  const double seconds = args.real("seconds", 5.0);
  if (seconds <= 0.0) {
    std::printf("serving until killed (ctrl-c)...\n");
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(60));
  }
  std::printf("serving for %.1fs...\n", seconds);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));

  print_fleet_stats(fleet.stats());
  frontend.stop();
  fleet.shutdown();
  return 0;
}

/// One closed-loop measurement (same shape as bench/fleet_throughput).
struct FleetPoint {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  fleet::FleetStats stats;
};

FleetPoint run_fleet_point(const model::HdcModel& model,
                           const std::vector<hv::BinVec>& queries,
                           std::size_t shards, std::size_t clients,
                           double seconds, double fault_rate,
                           const fleet::NetChaosConfig* net = nullptr,
                           long partition = -1) {
  auto fleet = make_fleet(model, shards, /*workers=*/1);
  fleet::Frontend frontend(fleet);
  frontend.start();
  std::vector<fleet::Endpoint> endpoints;
  std::vector<std::string> groups;
  for (const auto port : frontend.ports()) {
    endpoints.push_back({"127.0.0.1", port});
    groups.push_back("default");
  }
  std::unique_ptr<fleet::NetChaos> chaos;
  if (net != nullptr) {
    chaos = std::make_unique<fleet::NetChaos>(endpoints, *net);
    chaos->start();
    endpoints = chaos->endpoints();
  }

  serve::LatencyHistogram latency;
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> responses{0};
  std::vector<std::thread> threads;
  fleet::ClientConfig client_config;
  if (chaos) {
    // Under injected faults a dropped chunk must burn one attempt's
    // slice, not the whole predict budget.
    client_config.retry.attempt_timeout = std::chrono::milliseconds(250);
    client_config.retry.initial_backoff = std::chrono::milliseconds(1);
  }
  for (std::size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      fleet::Client client(endpoints, groups, client_config);
      std::uint64_t tenant = t;
      std::size_t q = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto begin = std::chrono::steady_clock::now();
        const auto r = client.predict(tenant, queries[q % queries.size()]);
        const auto end = std::chrono::steady_clock::now();
        tenant += clients;
        ++q;
        if (r.ok && measuring.load(std::memory_order_relaxed)) {
          responses.fetch_add(1, std::memory_order_relaxed);
          latency.record(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                   begin)
                  .count()));
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  measuring.store(true, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2.0));
  if (fault_rate > 0.0 && model.precision_bits() == 1) {
    for (std::size_t s = 0; s < shards; ++s) {
      fleet.shard(s).server().inject_faults(
          fault_rate, fault::AttackMode::kRandom, 0x5eed + s);
    }
  }
  if (chaos && partition >= 0 && static_cast<std::size_t>(partition) < shards) {
    chaos->set_blackholed(static_cast<std::size_t>(partition), true);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2.0));
  const auto t1 = std::chrono::steady_clock::now();
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : threads) thread.join();

  FleetPoint point;
  point.qps = static_cast<double>(responses.load()) /
              std::chrono::duration<double>(t1 - t0).count();
  const auto summary = latency.summarize();
  point.p50_ms = summary.p50_ns / 1e6;
  point.p99_ms = summary.p99_ns / 1e6;
  fleet.drain();
  point.stats = fleet.stats();
  if (chaos) {
    const auto c = chaos->metrics();
    std::printf("netchaos: %llu conns, %llu delayed, %llu dropped, "
                "%llu resets, %llu blackholed chunks\n",
                static_cast<unsigned long long>(
                    c.counter("netchaos.connections")),
                static_cast<unsigned long long>(
                    c.counter("netchaos.chunks_delayed")),
                static_cast<unsigned long long>(
                    c.counter("netchaos.chunks_dropped")),
                static_cast<unsigned long long>(
                    c.counter("netchaos.resets_injected")),
                static_cast<unsigned long long>(
                    c.counter("netchaos.blackholed_chunks")));
    chaos->stop();
  }
  frontend.stop();
  fleet.shutdown();
  return point;
}

int cmd_fleet_bench(const Args& args) {
  // Synthetic tight-cluster world at a serving-friendly dimension (the
  // standalone bench uses the identical geometry).
  const auto dim =
      static_cast<std::size_t>(std::max(64L, args.number("dimension", 2048)));
  const auto seed = static_cast<std::uint64_t>(args.number("seed", 0x5eed));
  constexpr std::size_t kClasses = 4;
  util::Xoshiro256 rng(seed);
  std::vector<hv::BinVec> prototypes, train, queries;
  std::vector<int> labels;
  for (std::size_t c = 0; c < kClasses; ++c) {
    prototypes.push_back(hv::BinVec::random(dim, rng));
  }
  auto noisy = [&](std::size_t c) {
    auto v = prototypes[c];
    for (std::size_t d = 0; d < dim; ++d) {
      if (rng.bernoulli(0.04)) v.flip(d);
    }
    return v;
  };
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (int i = 0; i < 15; ++i) {
      train.push_back(noisy(c));
      labels.push_back(static_cast<int>(c));
    }
    for (int i = 0; i < 16; ++i) queries.push_back(noisy(c));
  }
  auto model = model::HdcModel::train(train, labels, kClasses, {});

  const auto shards =
      static_cast<std::size_t>(std::max(1L, args.number("shards", 2)));
  const auto clients_per_shard =
      static_cast<std::size_t>(std::max(1L, args.number("clients", 2)));
  const double seconds = args.real("seconds", 2.0);
  const double rate = args.real("rate", 0.05);
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  // Optional NetChaos faults between the clients and the frontend.
  const long net_delay_ms = args.number("net-delay-ms", 0);
  const double net_drop = args.real("net-drop", 0.0);
  const double net_reset = args.real("net-reset", 0.0);
  const long partition = args.number("partition", -1);
  if (net_delay_ms < 0) {
    std::fprintf(stderr, "--net-delay-ms must be >= 0\n");
    return 2;
  }
  if (net_drop < 0.0 || net_drop > 1.0 || net_reset < 0.0 || net_reset > 1.0) {
    std::fprintf(stderr, "--net-drop / --net-reset must be in [0,1]\n");
    return 2;
  }
  if (partition >= 0 && static_cast<std::size_t>(partition) >= shards) {
    std::fprintf(stderr, "--partition %ld out of range (shards=%zu)\n",
                 partition, shards);
    return 2;
  }
  if (partition >= 0 && shards < 2) {
    std::fprintf(stderr, "--partition needs --shards >= 2 to fail over to\n");
    return 2;
  }
  const bool use_net =
      net_delay_ms > 0 || net_drop > 0.0 || net_reset > 0.0 || partition >= 0;
  fleet::NetChaosConfig net;
  net.delay = std::chrono::milliseconds(net_delay_ms);
  net.drop_rate = net_drop;
  net.reset_rate = net_reset;
  const fleet::NetChaosConfig* net_ptr = use_net ? &net : nullptr;

  // The 1-shard reference sees the same wire faults (a fair baseline)
  // but never the partition — with no twin there is nowhere to fail
  // over, so the partition only applies to the multi-shard point.
  const auto base = run_fleet_point(model, queries, 1, clients_per_shard,
                                    seconds, rate, net_ptr);
  std::printf("shards=1 clients=%zu: %.0f qps, p50 %.3f ms, p99 %.3f ms\n",
              clients_per_shard, base.qps, base.p50_ms, base.p99_ms);
  const auto scaled =
      run_fleet_point(model, queries, shards, clients_per_shard * shards,
                      seconds, rate, net_ptr, partition);
  std::printf("shards=%zu clients=%zu: %.0f qps, p50 %.3f ms, p99 %.3f ms\n",
              shards, clients_per_shard * shards, scaled.qps, scaled.p50_ms,
              scaled.p99_ms);
  print_fleet_stats(scaled.stats);

  const double ideal =
      static_cast<double>(std::min(shards, cores)) * base.qps;
  const double efficiency = ideal > 0.0 ? scaled.qps / ideal : 0.0;
  std::printf("weak-scaling efficiency 1 -> %zu shards: %.2f "
              "(core-aware, %zu cores)\n",
              shards, efficiency, cores);

  const double gate = args.real("gate", 0.0);
  if (gate > 0.0 && shards > 1 && efficiency < gate) {
    std::printf("FAIL: efficiency %.2f below gate %.2f\n", efficiency, gate);
    return 1;
  }
  return 0;
}

void usage() {
  std::fprintf(stderr, "usage: robusthd <command> [--flag value]...\n"
                       "commands:\n");
  for (const auto& spec : command_specs()) {
    std::fprintf(stderr, "  %-12s %s\n", spec.name, spec.summary);
  }
  std::fprintf(stderr,
               "run `robusthd <command> --help` for that command's flags\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "help") == 0) {
    usage();
    return argc < 2 ? 2 : 0;
  }
  const std::string command = argv[1];
  const CommandSpec* spec = find_spec(command);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    usage();
    return 2;
  }
  const Args args(argc, argv, *spec);
  try {
    if (command == "train") return cmd_train(args);
    if (command == "eval") return cmd_eval(args);
    if (command == "attack") return cmd_attack(args);
    if (command == "recover") return cmd_recover(args);
    if (command == "serve-bench") return cmd_serve_bench(args);
    if (command == "chaos") return cmd_chaos(args);
    if (command == "adversary") return cmd_adversary(args);
    if (command == "fleet-serve") return cmd_fleet_serve(args);
    if (command == "fleet-bench") return cmd_fleet_bench(args);
    if (command == "info") return cmd_info(args);
    if (command == "integrity") return cmd_integrity(args);
    if (command == "wal-recover") return cmd_wal_recover(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
