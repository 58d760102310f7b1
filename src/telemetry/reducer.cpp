#include "telemetry/reducer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace pcap::telemetry {

GroupSeries Reducer::align(const Sampler& sampler,
                           const std::string& name) const {
  GroupSeries out;
  out.name = name;
  const auto& ring = sampler.series();
  if (ring.empty()) return out;

  const util::Picoseconds first = ring.front().time;
  const util::Picoseconds last = ring.back().time;
  // Grid edges at integer multiples of the period, covering [first, last].
  util::Picoseconds edge = (first / period_) * period_;
  if (edge < first) edge += period_;
  std::size_t i = 0;
  for (; edge <= last; edge += period_) {
    // Last sample at-or-before the bin edge (zero-order hold).
    while (i + 1 < ring.size() && ring.at(i + 1).time <= edge) ++i;
    if (ring.at(i).time > edge) continue;  // node not yet sampling
    const double w = ring.at(i).watts;
    out.bins.push_back({edge, 1, w, w, w, w});
  }
  return out;
}

GroupSample Reducer::combine(const GroupSample& x, const GroupSample& y) {
  if (y.nodes == 0) return x;
  if (x.nodes == 0) return y;
  GroupSample m;
  m.time = x.time;
  m.nodes = x.nodes + y.nodes;
  m.min_w = std::min(x.min_w, y.min_w);
  m.max_w = std::max(x.max_w, y.max_w);
  m.sum_w = x.sum_w + y.sum_w;
  m.mean_w = m.sum_w / static_cast<double>(m.nodes);
  return m;
}

GroupSeries Reducer::merge(const GroupSeries& a, const GroupSeries& b) {
  GroupSeries out;
  out.name = a.name.empty() ? b.name : a.name;
  std::size_t ia = 0, ib = 0;
  out.bins.reserve(std::max(a.bins.size(), b.bins.size()));
  while (ia < a.bins.size() || ib < b.bins.size()) {
    const bool take_a =
        ib >= b.bins.size() ||
        (ia < a.bins.size() && a.bins[ia].time < b.bins[ib].time);
    const bool take_b =
        ia >= a.bins.size() ||
        (ib < b.bins.size() && b.bins[ib].time < a.bins[ia].time);
    if (take_a) {
      out.bins.push_back(a.bins[ia++]);
    } else if (take_b) {
      out.bins.push_back(b.bins[ib++]);
    } else {  // same bin edge
      out.bins.push_back(combine(a.bins[ia++], b.bins[ib++]));
    }
  }
  return out;
}

GroupSeries Reducer::reduce(std::span<const Sampler* const> samplers,
                            const std::string& name) const {
  std::vector<GroupSeries> level;
  level.reserve(samplers.size());
  for (std::size_t i = 0; i < samplers.size(); ++i) {
    level.push_back(align(*samplers[i], name));
  }
  if (level.empty()) {
    GroupSeries empty;
    empty.name = name;
    return empty;
  }
  // Binary-tree fan-in: pair up, merge, repeat until one series remains.
  while (level.size() > 1) {
    std::vector<GroupSeries> next;
    next.reserve((level.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(merge(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  level.front().name = name;
  return level.front();
}

GroupSeriesBuilder::GroupSeriesBuilder(std::string name, std::size_t nodes,
                                       const SamplerConfig& config,
                                       std::size_t capacity)
    : name_(std::move(name)),
      period_(config.period ? config.period : 1),
      next_sample_(period_),
      leaves_(nodes),
      times_(capacity) {
  level_.reserve(nodes);
}

void GroupSeriesBuilder::record(util::Picoseconds now,
                                std::span<const double> watts) {
  if (watts.size() != leaves_.size()) {
    throw std::invalid_argument("GroupSeriesBuilder: one draw per node");
  }
  for (std::size_t i = 0; i < watts.size(); ++i) {
    if (std::isnan(watts[i]) && leaves_[i].nodes != 0) {
      throw std::invalid_argument("GroupSeriesBuilder: node " +
                                  std::to_string(i) + " stopped reporting");
    }
  }
  // The first grid edge this record reaches: after the previous record,
  // or at-or-after `now` for the first one (align()'s first edge).
  util::Picoseconds edge;
  if (times_.empty()) {
    edge = (now / period_) * period_;
    if (edge < now) edge += period_;
  } else {
    edge = (times_.back() / period_ + 1) * period_;
  }
  if (edge < now) {
    const GroupSample held = fold();
    for (; edge < now; edge += period_) append(edge, held);
  }
  for (std::size_t i = 0; i < watts.size(); ++i) {
    const double w = watts[i];
    if (!std::isnan(w)) leaves_[i] = {0, 1, w, w, w, w};
  }
  if (edge == now) append(edge, fold());

  times_.push(now);
  if (times_.wrapped()) {
    const util::Picoseconds oldest = times_.front();
    while (head_ < bins_.size() && bins_[head_].time < oldest) ++head_;
    // Compact once half the buffer is dead: amortised O(1) per bin.
    if (head_ > 0 && 2 * head_ >= bins_.size()) {
      bins_.erase(bins_.begin(),
                  bins_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  while (next_sample_ <= now) next_sample_ += period_;
}

GroupSample GroupSeriesBuilder::fold() {
  // Reducer::reduce's tree, one bin at a time, in place: level n's pair
  // (i, i + 1) lands at i / 2, an odd tail at n / 2.
  level_.assign(leaves_.begin(), leaves_.end());
  for (std::size_t n = level_.size(); n > 1; n = (n + 1) / 2) {
    for (std::size_t i = 0; i + 1 < n; i += 2) {
      level_[i / 2] = Reducer::combine(level_[i], level_[i + 1]);
    }
    if (n % 2 == 1) level_[n / 2] = level_[n - 1];
  }
  return level_.empty() ? GroupSample{} : level_.front();
}

void GroupSeriesBuilder::append(util::Picoseconds edge,
                                const GroupSample& bin) {
  if (bin.nodes == 0) return;  // no node has reported: no bin, as reduce()
  bins_.push_back(bin);
  bins_.back().time = edge;
}

GroupSeries GroupSeriesBuilder::take() {
  GroupSeries out;
  out.name = name_;
  bins_.erase(bins_.begin(),
              bins_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
  out.bins = std::move(bins_);
  bins_.clear();
  return out;
}

void Reducer::write_csv(const GroupSeries& series, std::ostream& os) {
  os << "time_s,nodes,min_w,mean_w,max_w,sum_w\n";
  for (const GroupSample& b : series.bins) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%.9f,%zu,%.3f,%.3f,%.3f,%.3f\n",
                  util::to_seconds(b.time), b.nodes, b.min_w, b.mean_w,
                  b.max_w, b.sum_w);
    os << buf;
  }
}

void Reducer::write_csv_file(const GroupSeries& series,
                             const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("Reducer: cannot open " + path);
  write_csv(series, out);
}

}  // namespace pcap::telemetry
