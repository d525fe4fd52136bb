#include "robusthd/core/protected_model.hpp"

#include <cstring>

namespace robusthd::core {

EccProtectedModel::EccProtectedModel(model::HdcModel& model) : model_(model) {
  for (std::size_t c = 0; c < model_.num_classes(); ++c) {
    for (std::size_t p = 0; p < model_.precision_bits(); ++p) {
      planes_.emplace_back(std::as_bytes(model_.plane_words(c, p)));
    }
  }
}

std::vector<fault::MemoryRegion> EccProtectedModel::memory_regions() {
  std::vector<fault::MemoryRegion> regions;
  regions.reserve(planes_.size() * 2);
  for (std::size_t i = 0; i < planes_.size(); ++i) {
    regions.push_back(fault::MemoryRegion{
        planes_[i].stored_data(), 1, "ecc/data" + std::to_string(i)});
    regions.push_back(fault::MemoryRegion{
        planes_[i].stored_checks(), 1, "ecc/check" + std::to_string(i)});
  }
  return regions;
}

std::vector<fault::ConstMemoryRegion> EccProtectedModel::memory_regions()
    const {
  std::vector<fault::ConstMemoryRegion> regions;
  regions.reserve(planes_.size() * 2);
  for (std::size_t i = 0; i < planes_.size(); ++i) {
    regions.push_back(fault::ConstMemoryRegion{
        planes_[i].stored_data(), 1, "ecc/data" + std::to_string(i)});
    regions.push_back(fault::ConstMemoryRegion{
        planes_[i].stored_checks(), 1, "ecc/check" + std::to_string(i)});
  }
  return regions;
}

mem::EccProtectedMemory::ScrubReport EccProtectedModel::scrub_and_refresh() {
  mem::EccProtectedMemory::ScrubReport total;
  std::size_t slot = 0;
  for (std::size_t c = 0; c < model_.num_classes(); ++c) {
    const auto planes = model_.class_vector(c).planes;
    for (std::size_t p = 0; p < planes.size(); ++p) {
      const auto plane = planes[p];
      const auto report =
          planes_[slot].read_all(std::as_writable_bytes(plane.mutable_words()));
      plane.mask_tail();
      total.clean += report.clean;
      total.corrected += report.corrected;
      total.uncorrectable += report.uncorrectable;
      ++slot;
    }
  }
  return total;
}

std::size_t EccProtectedModel::stored_bits() const noexcept {
  std::size_t bits = 0;
  for (const auto& p : planes_) {
    bits += p.word_count() * 64 + p.overhead_bits();
  }
  return bits;
}

}  // namespace robusthd::core
