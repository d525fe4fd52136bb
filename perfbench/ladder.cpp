#include <algorithm>
#include <stdexcept>

#include "harness.hpp"
#include "robusthd/fleet/wire.hpp"
#include "robusthd/hv/encoder_base.hpp"
#include "robusthd/kernels/kernels.hpp"
#include "robusthd/pim/gpu_ref.hpp"

namespace perfbench {

namespace rhd = robusthd;

namespace {

constexpr std::size_t kLadderQueries = 1024;
constexpr double kLadderSeconds = 0.25;

/// Runs `pass` (which handles `items` items) once untimed, then repeatedly
/// until kLadderSeconds have passed; returns ns per item.
template <class Pass>
double ns_per_item(std::size_t items, Pass&& pass) {
  pass();
  std::size_t done = 0;
  const auto start = Clock::now();
  auto now = start;
  do {
    pass();
    done += items;
    now = Clock::now();
  } while (now - start < std::chrono::duration<double>(kLadderSeconds));
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
                 .count()) /
         static_cast<double>(done);
}

}  // namespace

void run_ladder(const LadderInputs& in, Result& result) {
  auto& v = result.values;
  const rhd::model::HdcModel& model = *in.model;
  const auto set =
      in.queries.first(std::min(in.queries.size(), kLadderQueries));

  // kernels: the arena matrix kernel, blocks of 256 as predict_batch uses.
  const auto view = model.arena().view();
  std::vector<const std::uint64_t*> ptrs;
  ptrs.reserve(set.size());
  for (const auto& q : set) ptrs.push_back(q.words().data());
  constexpr std::size_t kBlock = 256;
  std::vector<std::uint32_t> distances(kBlock * view.planes);
  const double kernel_ns = ns_per_item(set.size(), [&] {
    for (std::size_t b = 0; b < ptrs.size(); b += kBlock) {
      const std::size_t n = std::min(kBlock, ptrs.size() - b);
      rhd::kernels::hamming_matrix_arena(ptrs.data() + b, n, view,
                                         distances.data());
    }
  });
  const double bytes_per_query =
      static_cast<double>((view.planes + 1) * view.words * 8);
  v["kernels.score_ns_per_query"] = kernel_ns;
  v["kernels.wordops_per_query"] =
      rhd::pim::hdc_search_wordops(model.dimension(), view.planes, 1);
  v["kernels.gbytes_per_s"] = ratio(bytes_per_query, kernel_ns);
  v["mem.arena_bytes"] = static_cast<double>(model.arena().bytes());
  v["mem.arena_hugepage"] = model.arena().hugepage_backed() ? 1.0 : 0.0;

  // model: batched predict on one thread, and the recovery engine's
  // observe on a private copy of the snapshot.
  std::size_t sink = 0;
  v["model.predict_ns_per_query"] = ns_per_item(set.size(), [&] {
    sink += model.predict_batch(set, 1).size();
  });
  rhd::model::HdcModel copy = model;
  rhd::model::RecoveryEngine engine(copy, in.recovery);
  v["model.observe_ns"] = ns_per_item(set.size(), [&] {
    for (const auto& q : set) sink += engine.observe(q).trusted ? 1 : 0;
  });

  // hv: encode_into with a warm workspace.
  if (in.encoder != nullptr && in.features != nullptr) {
    rhd::hv::EncodeWorkspace ws;
    rhd::hv::BinVec out(in.encoder->dimension());
    const std::size_t rows = std::min(in.features->rows(), kLadderQueries);
    v["hv.encode_ns_per_query"] = ns_per_item(rows, [&] {
      for (std::size_t r = 0; r < rows; ++r) {
        in.encoder->encode_into(in.features->row(r), out, ws);
      }
      sink += out.word_count();
    });
  }

  // fleet wire: request and response encode, FrameReader and parse, no
  // sockets.
  namespace wire = rhd::fleet::wire;
  std::vector<std::byte> request_bytes;
  std::vector<std::byte> response_bytes;
  wire::FrameReader server_reader;
  wire::FrameReader client_reader;
  rhd::hv::BinVec parsed;
  std::uint64_t request_id = 0;
  v["fleet.wire_ns_per_roundtrip"] = ns_per_item(set.size(), [&] {
    for (const auto& q : set) {
      ++request_id;
      request_bytes.clear();
      wire::append_predict_request(request_bytes, 1, request_id, q, 5000);
      server_reader.feed(request_bytes);
      const auto frame = server_reader.next();
      if (!frame || !wire::parse_predict_request(frame->payload, parsed)) {
        throw std::runtime_error("wire ladder: request did not round-trip");
      }
      wire::PredictResult answer;
      answer.predicted = static_cast<std::int32_t>(request_id % 5);
      answer.model_version = request_id;
      response_bytes.clear();
      wire::append_predict_response(response_bytes, 1, request_id, answer);
      client_reader.feed(response_bytes);
      const auto reply = client_reader.next();
      const auto decoded =
          reply ? wire::parse_predict_response(*reply) : std::nullopt;
      if (!decoded || decoded->model_version != request_id) {
        throw std::runtime_error("wire ladder: response did not round-trip");
      }
      sink += parsed.word_count();
    }
  });
  if (sink == 0) result.report.push_back("ladder: empty input");
}

}  // namespace perfbench
