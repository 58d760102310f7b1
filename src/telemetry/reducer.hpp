// Hierarchical aggregation of per-node time series into group series, the
// shape flux-power-monitor uses for cluster power: leaves sample, interior
// nodes combine (min/mean/max/sum), the root holds the rack-level series.
//
// Per-node samplers run on independent tick clocks, so series are first
// aligned onto a shared time grid (bin = the reducer period, value = last
// sample at-or-before the bin edge), then merged pairwise up a binary tree.
// min, max and the node count do not depend on the fan-in shape, but the
// double sum (and so the mean) does once watts are not integers, so the
// fan-in order is fixed: leaves in slot order, pairs (0,1),(2,3)..., an odd
// tail carried up to the next level. The fleet left-folds its rack series
// in rack order on top of that.
//
// GroupSeriesBuilder streams the same tree for nodes that all sample on
// one clock (a rack's nodes sample on the same fleet tick): it keeps each
// node's last draw instead of each node's history, and appends a bin per
// grid edge as the samples pass it.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "telemetry/ring_buffer.hpp"
#include "telemetry/sampler.hpp"
#include "util/units.hpp"

namespace pcap::telemetry {

/// One bin of a group-level series.
struct GroupSample {
  util::Picoseconds time = 0;
  std::size_t nodes = 0;  // nodes contributing to this bin
  double min_w = 0.0;
  double mean_w = 0.0;
  double max_w = 0.0;
  double sum_w = 0.0;
};

struct GroupSeries {
  std::string name;
  std::vector<GroupSample> bins;
};

class Reducer {
 public:
  /// `period`: width of the shared time grid the node series are aligned to.
  explicit Reducer(util::Picoseconds period) : period_(period ? period : 1) {}

  util::Picoseconds period() const { return period_; }

  /// Aligns one node's retained series onto the grid. Bins before the
  /// node's first sample are absent (nodes == 0 contribution).
  GroupSeries align(const Sampler& sampler, const std::string& name) const;

  /// One bin of `x` combined with the same edge's bin of `y`: min of
  /// mins, max of maxes, sum of sums, mean = sum / nodes. A bin with no
  /// nodes is absent and passes the other through unchanged. Keeps `x`'s
  /// time.
  static GroupSample combine(const GroupSample& x, const GroupSample& y);

  /// Pairwise merge of two aligned/reduced series: bins on the same edge
  /// combine(), the others pass through.
  static GroupSeries merge(const GroupSeries& a, const GroupSeries& b);

  /// Full hierarchical reduction: aligns every sampler and merges up the
  /// binary tree in slot order (see the file comment). A left fold of
  /// merge() gives the same bins, min, max and node counts, but its sums
  /// may differ in the last bits.
  GroupSeries reduce(std::span<const Sampler* const> samplers,
                     const std::string& name) const;

  /// CSV: time_s,nodes,min_w,mean_w,max_w,sum_w.
  static void write_csv(const GroupSeries& series, std::ostream& os);
  static void write_csv_file(const GroupSeries& series,
                             const std::string& path);

 private:
  util::Picoseconds period_;
};

/// Builds a group series as its nodes are sampled, bit-identical to
/// Reducer(config.period).reduce() over one Sampler(config, capacity) per
/// node fed the same draws at the same times, without keeping any node's
/// history: one sampling boundary (the Sampler's due()/record() rule) and
/// each node's last draw. Each record() appends a bin per grid edge it passes,
/// in (previous record, now]: edges before `now` hold the previous draws,
/// an edge at `now` takes the new ones (zero-order hold, as align() does).
///
/// `capacity` bounds retention exactly as each node's ring would: once
/// more than `capacity` records were taken, bins before the oldest retained
/// record's time are dropped.
class GroupSeriesBuilder {
 public:
  GroupSeriesBuilder(std::string name, std::size_t nodes,
                     const SamplerConfig& config, std::size_t capacity = 4096);

  bool due(util::Picoseconds now) const { return now >= next_sample_; }
  /// Records one draw per node, in slot order, at `now` and advances the
  /// boundary. The caller checks due(). A NaN draw marks a node that has
  /// not reported yet (an absent leaf, as a Sampler with no samples); once
  /// a node has reported, a NaN draw throws std::invalid_argument, as does
  /// a span of the wrong size.
  void record(util::Picoseconds now, std::span<const double> watts);

  /// Records taken, including ones that fell out of the retention window.
  std::size_t taken() const { return times_.pushed(); }
  /// The retained bins, oldest first.
  std::span<const GroupSample> bins() const {
    return std::span<const GroupSample>(bins_).subspan(head_);
  }
  /// Moves the retained series out; later records start a new one.
  GroupSeries take();

 private:
  /// The tree over every node's last draw (nodes == 0: nobody reported).
  GroupSample fold();
  void append(util::Picoseconds edge, const GroupSample& bin);

  std::string name_;
  util::Picoseconds period_;
  util::Picoseconds next_sample_;
  std::vector<GroupSample> leaves_;  // last draw per node
  std::vector<GroupSample> level_;   // fold() scratch
  RingBuffer<util::Picoseconds> times_;  // retained record times
  std::vector<GroupSample> bins_;
  std::size_t head_ = 0;  // bins_[0, head_) fell out of the window
};

}  // namespace pcap::telemetry
