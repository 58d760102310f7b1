#include "util/ascii_chart.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace pcap::util {

namespace {
constexpr char kMarks[] = "*o+x#@%&$~";
}

AsciiChart::AsciiChart(std::vector<std::string> x_labels, int width, int height)
    : x_labels_(std::move(x_labels)), width_(width), height_(height) {}

void AsciiChart::add_series(ChartSeries series) {
  series_.push_back(std::move(series));
}

std::string AsciiChart::render() const {
  std::ostringstream os;
  if (!title_.empty()) os << title_ << '\n';
  if (series_.empty() || x_labels_.empty()) return os.str();

  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const auto& s : series_) {
    for (double v : s.values) {
      const double y = log_y_ ? std::log10(std::max(v, 1e-12)) : v;
      lo = std::min(lo, y);
      hi = std::max(hi, y);
    }
  }
  if (!std::isfinite(lo)) return os.str();
  if (hi - lo < 1e-12) hi = lo + 1.0;

  const int rows = height_;
  const int cols = width_;
  std::vector<std::string> grid(rows, std::string(cols, ' '));
  const auto n = x_labels_.size();
  auto col_of = [&](std::size_t i) {
    return n <= 1 ? 0
                  : static_cast<int>(static_cast<double>(i) * (cols - 1) /
                                     static_cast<double>(n - 1));
  };
  auto row_of = [&](double v) {
    const double y = log_y_ ? std::log10(std::max(v, 1e-12)) : v;
    const double frac = (y - lo) / (hi - lo);
    return rows - 1 -
           static_cast<int>(std::lround(frac * static_cast<double>(rows - 1)));
  };

  for (std::size_t si = 0; si < series_.size(); ++si) {
    const char mark = kMarks[si % (sizeof(kMarks) - 1)];
    const auto& vals = series_[si].values;
    for (std::size_t i = 0; i < vals.size() && i < n; ++i) {
      const int r = std::clamp(row_of(vals[i]), 0, rows - 1);
      const int c = std::clamp(col_of(i), 0, cols - 1);
      grid[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = mark;
    }
  }

  char buf[32];
  for (int r = 0; r < rows; ++r) {
    const double frac = static_cast<double>(rows - 1 - r) / (rows - 1);
    double y = lo + frac * (hi - lo);
    if (log_y_) y = std::pow(10.0, y);
    std::snprintf(buf, sizeof buf, "%10.3g |", y);
    os << buf << grid[static_cast<std::size_t>(r)] << '\n';
  }
  os << std::string(11, ' ') << '+' << std::string(static_cast<std::size_t>(cols), '-')
     << '\n';

  // X labels: first, middle, last to avoid clutter.
  os << std::string(12, ' ');
  std::string labels(static_cast<std::size_t>(cols), ' ');
  auto place = [&](std::size_t i) {
    const auto c = static_cast<std::size_t>(col_of(i));
    const auto& text = x_labels_[i];
    const std::size_t start = std::min(c, labels.size() - std::min(text.size(), labels.size()));
    for (std::size_t k = 0; k < text.size() && start + k < labels.size(); ++k) {
      labels[start + k] = text[k];
    }
  };
  place(0);
  if (n > 2) place(n / 2);
  if (n > 1) place(n - 1);
  os << labels << '\n';

  if (!y_label_.empty()) os << "y: " << y_label_ << (log_y_ ? " (log scale)" : "") << '\n';
  os << "legend:";
  for (std::size_t si = 0; si < series_.size(); ++si) {
    os << "  " << kMarks[si % (sizeof(kMarks) - 1)] << '=' << series_[si].name;
  }
  os << '\n';
  return os.str();
}

TimeSeriesChart::TimeSeriesChart(int width, int height)
    : width_(width), height_(height) {}

void TimeSeriesChart::add_series(TimeSeries series) {
  series_.push_back(std::move(series));
}

std::string TimeSeriesChart::render() const {
  std::ostringstream os;
  if (!title_.empty()) os << title_ << '\n';

  double t_lo = std::numeric_limits<double>::infinity();
  double t_hi = -t_lo;
  double v_lo = t_lo;
  double v_hi = -t_lo;
  for (const auto& s : series_) {
    const std::size_t n = std::min(s.times_s.size(), s.values.size());
    for (std::size_t i = 0; i < n; ++i) {
      t_lo = std::min(t_lo, s.times_s[i]);
      t_hi = std::max(t_hi, s.times_s[i]);
      v_lo = std::min(v_lo, s.values[i]);
      v_hi = std::max(v_hi, s.values[i]);
    }
  }
  if (!std::isfinite(t_lo) || !std::isfinite(v_lo)) return os.str();
  if (t_hi - t_lo < 1e-30) t_hi = t_lo + 1.0;
  if (v_hi - v_lo < 1e-12) v_hi = v_lo + 1.0;

  const int rows = height_;
  const int cols = width_;
  std::vector<std::string> grid(rows, std::string(cols, ' '));
  auto col_of = [&](double t) {
    const double frac = (t - t_lo) / (t_hi - t_lo);
    return std::clamp(
        static_cast<int>(std::lround(frac * static_cast<double>(cols - 1))), 0,
        cols - 1);
  };
  auto row_of = [&](double v) {
    const double frac = (v - v_lo) / (v_hi - v_lo);
    const int r = rows - 1 -
                  static_cast<int>(
                      std::lround(frac * static_cast<double>(rows - 1)));
    return std::clamp(r, 0, rows - 1);
  };

  for (std::size_t si = 0; si < series_.size(); ++si) {
    const char mark = kMarks[si % (sizeof(kMarks) - 1)];
    const auto& s = series_[si];
    const std::size_t n = std::min(s.times_s.size(), s.values.size());
    for (std::size_t i = 0; i < n; ++i) {
      grid[static_cast<std::size_t>(row_of(s.values[i]))]
          [static_cast<std::size_t>(col_of(s.times_s[i]))] = mark;
    }
  }

  char buf[32];
  for (int r = 0; r < rows; ++r) {
    const double frac = static_cast<double>(rows - 1 - r) / (rows - 1);
    std::snprintf(buf, sizeof buf, "%10.3g |", v_lo + frac * (v_hi - v_lo));
    os << buf << grid[static_cast<std::size_t>(r)] << '\n';
  }
  os << std::string(11, ' ') << '+'
     << std::string(static_cast<std::size_t>(cols), '-') << '\n';

  // Time labels: start, midpoint, end.
  std::string labels(static_cast<std::size_t>(cols), ' ');
  auto place = [&](double t) {
    std::snprintf(buf, sizeof buf, "%.4g", t);
    const std::string text(buf);
    const auto c = static_cast<std::size_t>(col_of(t));
    const std::size_t start =
        std::min(c, labels.size() - std::min(text.size(), labels.size()));
    for (std::size_t k = 0; k < text.size() && start + k < labels.size(); ++k) {
      labels[start + k] = text[k];
    }
  };
  place(t_lo);
  place((t_lo + t_hi) / 2.0);
  place(t_hi);
  os << std::string(12, ' ') << labels << '\n';
  os << "x: time (s)";
  if (!y_label_.empty()) os << "  y: " << y_label_;
  os << '\n' << "legend:";
  for (std::size_t si = 0; si < series_.size(); ++si) {
    os << "  " << kMarks[si % (sizeof(kMarks) - 1)] << '=' << series_[si].name;
  }
  os << '\n';
  return os.str();
}

}  // namespace pcap::util
