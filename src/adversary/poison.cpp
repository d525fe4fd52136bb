#include "robusthd/adversary/poison.hpp"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <utility>

namespace robusthd::adversary {

PoisonCampaign::PoisonCampaign(model::HdcModel reference,
                               const PoisonConfig& config)
    : reference_(std::move(reference)), config_(config), rng_(config.seed) {
  if (reference_.precision_bits() != 1) {
    throw std::invalid_argument("PoisonCampaign: 1-bit models only");
  }
  if (reference_.num_classes() < 2) {
    throw std::invalid_argument("PoisonCampaign: need at least two classes");
  }
  if (config_.chunks == 0 || config_.chunks > reference_.dimension()) {
    throw std::invalid_argument("PoisonCampaign: bad chunk count");
  }
  if (config_.dirty_chunks == 0 || config_.dirty_chunks >= config_.chunks) {
    throw std::invalid_argument(
        "PoisonCampaign: dirty_chunks must be in [1, chunks)");
  }
  if (!config_.all_classes &&
      config_.target_class >= reference_.num_classes()) {
    throw std::invalid_argument("PoisonCampaign: bad target class");
  }
}

std::vector<hv::BinVec> PoisonCampaign::craft_wave() {
  const std::size_t dim = reference_.dimension();
  const std::size_t k = reference_.num_classes();
  const std::size_t m = config_.chunks;
  const std::size_t first_chunk =
      config_.fixed_chunk != static_cast<std::size_t>(-1)
          ? config_.fixed_chunk % m
          : wave_ % m;
  ++wave_;

  std::vector<hv::BinVec> wave;
  wave.reserve((config_.all_classes ? k : 1) * config_.queries_per_class);
  for (std::size_t t = 0; t < k; ++t) {
    if (!config_.all_classes && t != config_.target_class) continue;
    const std::size_t rival = (t + 1) % k;
    const auto victim_plane = reference_.class_vector(t).planes[0];
    const auto rival_plane = reference_.class_vector(rival).planes[0];
    for (std::size_t q = 0; q < config_.queries_per_class; ++q) {
      hv::BinVec query = victim_plane.to_binvec();
      // Sparse noise outside the payload keeps the queries distinct (so
      // they read as a traffic stream, not one repeated vector) while the
      // payload itself stays bit-exact across the wave — the engine's
      // consensus majority then reproduces the rival's bits verbatim.
      for (std::size_t i = 0; i < dim; ++i) {
        if (rng_.bernoulli(config_.query_noise)) query.flip(i);
      }
      for (std::size_t c = 0; c < config_.dirty_chunks; ++c) {
        const std::size_t chunk = (first_chunk + c) % m;
        const std::size_t begin = chunk * dim / m;
        const std::size_t end = (chunk + 1) * dim / m;
        for (std::size_t i = begin; i < end; ++i) {
          query.set(i, rival_plane.get(i));
        }
      }
      wave.push_back(std::move(query));
    }
  }
  return wave;
}

PoisonReport PoisonCampaign::run(serve::Server& server) {
  PoisonReport report;
  for (std::size_t w = 0; w < config_.waves; ++w) {
    auto wave = craft_wave();
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(wave.size());
    for (auto& query : wave) {
      futures.push_back(server.submit(std::move(query)));
      ++report.sent;
    }
    for (auto& future : futures) {
      try {
        const auto response = future.get();
        ++report.answered;
        if (response.trusted) ++report.trusted;
      } catch (const std::future_error&) {
        ++report.failed;
      }
    }
    // Let the scrubber consume this wave before the next one lands, so
    // each wave's consensus votes target the intended chunk.
    server.drain();
  }
  return report;
}

std::size_t PoisonCampaign::wrong_bits(const model::HdcModel& blessed,
                                       const model::HdcModel& current) {
  std::size_t bits = 0;
  const std::size_t k =
      std::min(blessed.num_classes(), current.num_classes());
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t planes =
        std::min(blessed.precision_bits(), current.precision_bits());
    for (std::size_t p = 0; p < planes; ++p) {
      bits += util::hamming(blessed.plane_words(c, p),
                            current.plane_words(c, p));
    }
  }
  return bits;
}

}  // namespace robusthd::adversary
