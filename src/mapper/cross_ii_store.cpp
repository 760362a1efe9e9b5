#include "mapper/cross_ii_store.hpp"

#include <algorithm>
#include <map>

namespace monomap {

void canonicalize(SlotPartitionCert& cert) {
  std::vector<std::pair<std::vector<NodeId>, int>> blocks;
  blocks.reserve(cert.blocks.size());
  for (std::size_t b = 0; b < cert.blocks.size(); ++b) {
    std::sort(cert.blocks[b].begin(), cert.blocks[b].end());
    blocks.emplace_back(std::move(cert.blocks[b]), cert.block_slots[b]);
  }
  std::sort(blocks.begin(), blocks.end(), [](const auto& a, const auto& b) {
    return a.first.front() < b.first.front();
  });
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    cert.blocks[b] = std::move(blocks[b].first);
    cert.block_slots[b] = blocks[b].second;
  }
}

bool cert_hits_labels(const SlotPartitionCert& cert,
                      const std::vector<int>& labels) {
  for (const std::vector<NodeId>& block : cert.blocks) {
    const int want = labels[static_cast<std::size_t>(block.front())];
    for (std::size_t i = 1; i < block.size(); ++i) {
      if (labels[static_cast<std::size_t>(block[i])] != want) return false;
    }
  }
  return true;
}

std::vector<std::vector<std::pair<NodeId, int>>> instantiate_rotations(
    const SlotPartitionCert& cert, int target_ii) {
  std::vector<std::vector<std::pair<NodeId, int>>> out;
  out.reserve(static_cast<std::size_t>(target_ii));
  std::size_t num_nodes = 0;
  for (const auto& block : cert.blocks) num_nodes += block.size();
  for (int k = 0; k < target_ii; ++k) {
    std::vector<std::pair<NodeId, int>> placements;
    placements.reserve(num_nodes);
    for (std::size_t b = 0; b < cert.blocks.size(); ++b) {
      const int slot =
          (cert.block_slots[b] + k) % target_ii;
      for (const NodeId v : cert.blocks[b]) {
        placements.emplace_back(v, slot);
      }
    }
    out.push_back(std::move(placements));
  }
  return out;
}

bool CrossIiNogoodStore::add(int source_ii, const std::vector<NodeId>& nodes,
                             const std::vector<int>& labels) {
  // Group the conflict nodes by their slot; the canonical form makes the
  // partition key independent of which slots happened to carry it.
  std::map<int, std::vector<NodeId>> by_slot;
  for (const NodeId v : nodes) {
    by_slot[labels[static_cast<std::size_t>(v)]].push_back(v);
  }
  SlotPartitionCert cert;
  cert.source_ii = source_ii;
  for (auto& [slot, block] : by_slot) {
    cert.blocks.push_back(std::move(block));
    cert.block_slots.push_back(slot);
  }
  canonicalize(cert);
  return add_cert(std::move(cert));
}

bool CrossIiNogoodStore::add_cert(SlotPartitionCert cert) {
  if (cert.blocks.empty() || cert.blocks.size() != cert.block_slots.size()) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(m_);
  if (!seen_.insert(cert.blocks).second) return false;
  if (gov_ != nullptr) {
    // Charge the certificate; under pressure evict oldest-first — stale
    // source-II knowledge goes before fresh — and only drop the new
    // certificate when the store is empty and the budget still refuses.
    const std::size_t bytes = cert_bytes(cert);
    while (!gov_->try_charge(bytes)) {
      if (certs_.empty()) return false;
      gov_->note_shed();
      evict_front_locked();
    }
    gov_charged_ += bytes;
  }
  certs_.push_back(std::move(cert));
  return true;
}

CrossIiNogoodStore::~CrossIiNogoodStore() {
  if (gov_ != nullptr) gov_->uncharge(gov_charged_);
}

void CrossIiNogoodStore::set_governor(ResourceGovernor* governor) {
  const std::lock_guard<std::mutex> lock(m_);
  gov_ = governor;
}

std::size_t CrossIiNogoodStore::cert_bytes(const SlotPartitionCert& cert) {
  std::size_t bytes = sizeof(SlotPartitionCert) + 64;
  for (const auto& block : cert.blocks) {
    bytes += sizeof(std::vector<NodeId>) + block.size() * sizeof(NodeId);
  }
  bytes += cert.block_slots.size() * sizeof(int);
  return bytes;
}

void CrossIiNogoodStore::evict_front_locked() {
  const std::size_t bytes = cert_bytes(certs_.front());
  const std::size_t refund = std::min(bytes, gov_charged_);
  gov_->uncharge(refund);
  gov_charged_ -= refund;
  certs_.pop_front();
  ++base_;
  ++evicted_;
}

void CrossIiNogoodStore::drain(std::size_t* cursor,
                               std::vector<SlotPartitionCert>* out) const {
  const std::lock_guard<std::mutex> lock(m_);
  // Cursors are virtual indices; a cursor pointing below base_ names
  // evicted certificates, which are gone — skip ahead.
  for (std::size_t i = std::max(*cursor, base_); i < base_ + certs_.size();
       ++i) {
    out->push_back(certs_[i - base_]);
  }
  *cursor = base_ + certs_.size();
}

std::size_t CrossIiNogoodStore::size() const {
  const std::lock_guard<std::mutex> lock(m_);
  return certs_.size();
}

std::size_t CrossIiNogoodStore::evicted() const {
  const std::lock_guard<std::mutex> lock(m_);
  return evicted_;
}

}  // namespace monomap
