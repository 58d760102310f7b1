// ASCII line charts for rendering the paper's figures on a console.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace pcap::util {

/// One named series of y-values sampled at shared x positions.
struct ChartSeries {
  std::string name;
  std::vector<double> values;
};

/// Renders one or more series on a shared grid. X positions are categorical
/// labels (the paper's x axes are power caps / strides). Supports optional
/// log10 scaling of the y axis for the stride figures.
class AsciiChart {
 public:
  AsciiChart(std::vector<std::string> x_labels, int width = 72, int height = 20);

  void add_series(ChartSeries series);
  void set_log_y(bool log_y) { log_y_ = log_y; }
  void set_title(std::string title) { title_ = std::move(title); }
  void set_y_label(std::string label) { y_label_ = std::move(label); }

  std::string render() const;

 private:
  std::vector<std::string> x_labels_;
  std::vector<ChartSeries> series_;
  std::string title_;
  std::string y_label_;
  int width_;
  int height_;
  bool log_y_ = false;
};

/// One named series of (time, value) points on a continuous time axis.
/// Times are in seconds; series may have different lengths and cadences.
struct TimeSeries {
  std::string name;
  std::vector<double> times_s;
  std::vector<double> values;
};

/// Line chart over continuous x (simulated time): each point is placed by
/// its timestamp, so series sampled at different cadences (a 200 µs meter,
/// a 20 µs control loop) share one axis. Renders like AsciiChart but with
/// numeric time labels; used by examples/power_timeline to show the
/// cap-settling transient.
class TimeSeriesChart {
 public:
  explicit TimeSeriesChart(int width = 72, int height = 20);

  void add_series(TimeSeries series);
  void set_title(std::string title) { title_ = std::move(title); }
  void set_y_label(std::string label) { y_label_ = std::move(label); }

  std::string render() const;

 private:
  std::vector<TimeSeries> series_;
  std::string title_;
  std::string y_label_;
  int width_;
  int height_;
};

}  // namespace pcap::util
