#include "arch/cgra.hpp"

#include <algorithm>
#include <sstream>

namespace monomap {

const char* topology_name(Topology t) {
  switch (t) {
    case Topology::kMesh: return "mesh";
    case Topology::kTorus: return "torus";
    case Topology::kDiagonal: return "diagonal";
  }
  return "?";
}

CgraArch::CgraArch(int rows, int cols, Topology topology)
    : rows_(rows), cols_(cols), topology_(topology) {
  MONOMAP_ASSERT_MSG(rows >= 1 && cols >= 1,
                     "CGRA must have at least one PE; got " << rows << "x"
                                                            << cols);
  const int n = num_pes();
  neighbors_.resize(static_cast<std::size_t>(n));
  closed_neighbors_.resize(static_cast<std::size_t>(n));

  auto maybe_add = [&](PeId from, int r, int c) {
    if (topology_ == Topology::kTorus) {
      r = (r + rows_) % rows_;
      c = (c + cols_) % cols_;
    } else if (r < 0 || r >= rows_ || c < 0 || c >= cols_) {
      return;
    }
    const PeId to = pe_at(r, c);
    if (to == from) {
      return;  // torus wrap on a 1-wide dimension
    }
    auto& list = neighbors_[static_cast<std::size_t>(from)];
    if (std::find(list.begin(), list.end(), to) == list.end()) {
      list.push_back(to);
    }
  };

  for (PeId pe = 0; pe < n; ++pe) {
    const int r = row_of(pe);
    const int c = col_of(pe);
    maybe_add(pe, r - 1, c);
    maybe_add(pe, r + 1, c);
    maybe_add(pe, r, c - 1);
    maybe_add(pe, r, c + 1);
    if (topology_ == Topology::kDiagonal) {
      maybe_add(pe, r - 1, c - 1);
      maybe_add(pe, r - 1, c + 1);
      maybe_add(pe, r + 1, c - 1);
      maybe_add(pe, r + 1, c + 1);
    }
    std::sort(neighbors_[static_cast<std::size_t>(pe)].begin(),
              neighbors_[static_cast<std::size_t>(pe)].end());
    auto& closed = closed_neighbors_[static_cast<std::size_t>(pe)];
    closed = neighbors_[static_cast<std::size_t>(pe)];
    closed.push_back(pe);
    std::sort(closed.begin(), closed.end());
    degree_ = std::max(degree_, static_cast<int>(closed.size()));
  }

  neighbor_masks_.reserve(static_cast<std::size_t>(n));
  closed_neighbor_masks_.reserve(static_cast<std::size_t>(n));
  for (PeId pe = 0; pe < n; ++pe) {
    PeSet open(n);
    for (const PeId q : neighbors_[static_cast<std::size_t>(pe)]) {
      open.set(q);
    }
    PeSet closed = open;
    closed.set(pe);
    neighbor_masks_.push_back(std::move(open));
    closed_neighbor_masks_.push_back(std::move(closed));
  }

  distance2_masks_.reserve(static_cast<std::size_t>(n));
  for (PeId pe = 0; pe < n; ++pe) {
    PeSet ball = closed_neighbor_masks_[static_cast<std::size_t>(pe)];
    for (const PeId q : neighbors_[static_cast<std::size_t>(pe)]) {
      ball |= closed_neighbor_masks_[static_cast<std::size_t>(q)];
    }
    d2_ball_max_ = std::max(d2_ball_max_, ball.count());
    distance2_masks_.push_back(std::move(ball));
  }

  // Degree-threshold masks: need == 0 is the full set, need > degree_ the
  // empty one (index degree_ + 1).
  min_degree_masks_.reserve(static_cast<std::size_t>(degree_) + 2);
  for (int need = 0; need <= degree_ + 1; ++need) {
    PeSet mask(n);
    for (PeId pe = 0; pe < n; ++pe) {
      if (static_cast<int>(
              closed_neighbors_[static_cast<std::size_t>(pe)].size()) >=
          need) {
        mask.set(pe);
      }
    }
    min_degree_masks_.push_back(std::move(mask));
  }
}

const std::vector<PeSet>& CgraArch::common_target_masks(int min_common) const {
  MONOMAP_ASSERT(min_common >= 1);
  std::lock_guard<std::mutex> lock(common_target_mutex_);
  auto it = common_target_cache_.find(min_common);
  if (it == common_target_cache_.end()) {
    std::vector<PeSet> masks;
    masks.reserve(static_cast<std::size_t>(num_pes()));
    for (PeId p = 0; p < num_pes(); ++p) {
      masks.push_back(common_target_mask(p, min_common));
    }
    it = common_target_cache_.emplace(min_common, std::move(masks)).first;
  }
  return it->second;
}

const std::vector<PeId>& CgraArch::interior_first_order() const {
  std::lock_guard<std::mutex> lock(common_target_mutex_);
  if (interior_order_.empty()) {
    interior_order_.reserve(static_cast<std::size_t>(num_pes()));
    for (PeId p = 0; p < num_pes(); ++p) interior_order_.push_back(p);
    std::stable_sort(interior_order_.begin(), interior_order_.end(),
                     [&](PeId a, PeId b) {
                       return closed_neighbors(a).size() >
                              closed_neighbors(b).size();
                     });
    interior_rank_.assign(static_cast<std::size_t>(num_pes()), 0);
    for (int i = 0; i < num_pes(); ++i) {
      interior_rank_[static_cast<std::size_t>(
          interior_order_[static_cast<std::size_t>(i)])] = i;
    }
  }
  return interior_order_;
}

const std::vector<int>& CgraArch::interior_first_rank() const {
  (void)interior_first_order();  // builds both under the lock
  return interior_rank_;
}

PeSet CgraArch::common_target_mask(PeId pe, int min_common) const {
  MONOMAP_ASSERT(has_pe(pe) && min_common >= 1);
  PeSet mask(num_pes());
  const PeSet& mine = closed_neighbor_masks_[static_cast<std::size_t>(pe)];
  // |N[pe] ∩ N[q]| >= 1 already implies q within two grid hops of pe (some
  // common member is adjacent-or-equal to both), so only the distance-2
  // ball needs probing — constant work per PE as the grid grows.
  distance2_masks_[static_cast<std::size_t>(pe)].for_each([&](int q) {
    if (mine.intersect_count(
            closed_neighbor_masks_[static_cast<std::size_t>(q)]) >=
        min_common) {
      mask.set(q);
    }
  });
  return mask;
}

std::string CgraArch::description() const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " " << topology_name(topology_)
     << " CGRA (" << num_pes() << " PEs, D_M=" << degree_ << ")";
  return os.str();
}

}  // namespace monomap
