#include "sched/amenability_table.hpp"

#include <algorithm>

#include "core/capped_runner.hpp"
#include "sim/node.hpp"
#include "util/arena.hpp"
#include "util/units.hpp"

namespace pcap::sched {

namespace {

double interpolate(const std::vector<core::AmenabilityPoint>& points,
                   double cap_w, double (*value)(const core::AmenabilityPoint&),
                   double above_top) {
  if (points.empty()) return above_top;
  if (cap_w <= points.front().cap_w) {
    // Below the measured grid, extrapolate along the lowest segment: the
    // enforceable floor (110 W) sits under the lowest practical measurement
    // point, and a flat clamp there would hide the marginal value of the
    // first watts above the floor from the watt-filling policies.
    if (points.size() < 2) return value(points.front());
    const auto& lo = points[0];
    const auto& hi = points[1];
    const double span = hi.cap_w - lo.cap_w;
    if (span <= 0.0) return value(lo);
    const double slope = (value(hi) - value(lo)) / span;
    return value(lo) + slope * (cap_w - lo.cap_w);
  }
  if (cap_w >= points.back().cap_w) {
    // Above the measured grid the cap no longer binds.
    return above_top != 0.0 ? above_top : value(points.back());
  }
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (cap_w <= points[i].cap_w) {
      const auto& lo = points[i - 1];
      const auto& hi = points[i];
      const double span = hi.cap_w - lo.cap_w;
      const double f = span > 0.0 ? (cap_w - lo.cap_w) / span : 0.0;
      return value(lo) + f * (value(hi) - value(lo));
    }
  }
  return value(points.back());
}

}  // namespace

double ClassCurve::slowdown_at(double cap_w) const {
  if (cap_w >= baseline_power_w) return 1.0;  // cap above demand: unthrottled
  return interpolate(
      points, cap_w, [](const core::AmenabilityPoint& p) { return p.slowdown; },
      1.0);
}

double ClassCurve::power_at(double cap_w) const {
  if (cap_w >= baseline_power_w) return baseline_power_w;
  return interpolate(
      points, cap_w,
      [](const core::AmenabilityPoint& p) { return p.measured_power_w; },
      baseline_power_w);
}

void AmenabilityTable::set_curve(ClassCurve curve) {
  std::sort(curve.points.begin(), curve.points.end(),
            [](const core::AmenabilityPoint& a, const core::AmenabilityPoint& b) {
              return a.cap_w < b.cap_w;
            });
  curves_[static_cast<std::size_t>(curve.cls)] = std::move(curve);
}

const ClassCurve* AmenabilityTable::curve(JobClass cls) const {
  const auto& slot = curves_[static_cast<std::size_t>(cls)];
  return slot ? &*slot : nullptr;
}

bool AmenabilityTable::complete() const {
  return std::all_of(curves_.begin(), curves_.end(),
                     [](const auto& c) { return c.has_value(); });
}

std::size_t AmenabilityTable::size() const {
  return static_cast<std::size_t>(
      std::count_if(curves_.begin(), curves_.end(),
                    [](const auto& c) { return c.has_value(); }));
}

ClassCurve AmenabilityTable::from_report(JobClass cls,
                                         const core::AmenabilityReport& report,
                                         double usable_floor_w) {
  ClassCurve curve;
  curve.cls = cls;
  curve.baseline_power_w = report.baseline_power_w;
  curve.baseline_time_s = util::to_seconds(report.baseline_time);
  curve.usable_floor_w = usable_floor_w;
  curve.points = report.points;
  std::sort(curve.points.begin(), curve.points.end(),
            [](const core::AmenabilityPoint& a, const core::AmenabilityPoint& b) {
              return a.cap_w < b.cap_w;
            });
  return curve;
}

util::JsonValue AmenabilityTable::to_json() const {
  util::JsonArray classes;
  for (const auto& slot : curves_) {
    if (!slot) continue;
    const ClassCurve& curve = *slot;
    util::JsonArray points;
    for (const auto& p : curve.points) {
      util::JsonObject point;
      point["cap_w"] = util::JsonValue(p.cap_w);
      point["power_w"] = util::JsonValue(p.measured_power_w);
      point["slowdown"] = util::JsonValue(p.slowdown);
      point["energy_ratio"] = util::JsonValue(p.energy_ratio);
      point["cap_met"] = util::JsonValue(p.cap_met);
      points.emplace_back(std::move(point));
    }
    util::JsonObject entry;
    entry["class"] = util::JsonValue(job_class_name(curve.cls));
    entry["baseline_power_w"] = util::JsonValue(curve.baseline_power_w);
    entry["baseline_time_s"] = util::JsonValue(curve.baseline_time_s);
    entry["usable_floor_w"] = util::JsonValue(curve.usable_floor_w);
    entry["points"] = util::JsonValue(std::move(points));
    classes.emplace_back(std::move(entry));
  }
  util::JsonObject root;
  root["schema"] = util::JsonValue(std::string("pcap-amenability-v1"));
  root["classes"] = util::JsonValue(std::move(classes));
  return util::JsonValue(std::move(root));
}

std::optional<AmenabilityTable> AmenabilityTable::from_json(
    const util::JsonValue& v) {
  const util::JsonValue* schema = v.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "pcap-amenability-v1") {
    return std::nullopt;
  }
  const util::JsonValue* classes = v.find("classes");
  if (classes == nullptr || !classes->is_array()) return std::nullopt;

  AmenabilityTable table;
  for (const util::JsonValue& entry : classes->as_array()) {
    const util::JsonValue* name = entry.find("class");
    if (name == nullptr || !name->is_string()) return std::nullopt;
    const auto cls = job_class_from_name(name->as_string());
    if (!cls) return std::nullopt;

    ClassCurve curve;
    curve.cls = *cls;
    auto number = [&](const char* key, double* out) {
      const util::JsonValue* field = entry.find(key);
      if (field == nullptr || !field->is_number()) return false;
      *out = field->as_number();
      return true;
    };
    if (!number("baseline_power_w", &curve.baseline_power_w) ||
        !number("baseline_time_s", &curve.baseline_time_s) ||
        !number("usable_floor_w", &curve.usable_floor_w)) {
      return std::nullopt;
    }
    const util::JsonValue* points = entry.find("points");
    if (points == nullptr || !points->is_array()) return std::nullopt;
    for (const util::JsonValue& pv : points->as_array()) {
      core::AmenabilityPoint p;
      auto pnumber = [&](const char* key, double* out) {
        const util::JsonValue* field = pv.find(key);
        if (field == nullptr || !field->is_number()) return false;
        *out = field->as_number();
        return true;
      };
      if (!pnumber("cap_w", &p.cap_w) ||
          !pnumber("power_w", &p.measured_power_w) ||
          !pnumber("slowdown", &p.slowdown) ||
          !pnumber("energy_ratio", &p.energy_ratio)) {
        return std::nullopt;
      }
      const util::JsonValue* met = pv.find("cap_met");
      p.cap_met = met != nullptr && met->is_bool() ? met->as_bool() : true;
      curve.points.push_back(p);
    }
    table.set_curve(std::move(curve));
  }
  return table;
}

void AmenabilityTable::save(const std::string& path) const {
  util::write_json_file(path, to_json());
}

std::optional<AmenabilityTable> AmenabilityTable::load(
    const std::string& path) {
  const auto doc = util::read_json_file(path);
  if (!doc) return std::nullopt;
  return from_json(*doc);
}

AmenabilityTable characterize_job_classes(const CharacterizeOptions& options) {
  AmenabilityTable table;
  core::AmenabilityOptions analyzer_options;
  analyzer_options.slowdown_tolerance = options.slowdown_tolerance;
  analyzer_options.repetitions = options.repetitions;
  const core::AmenabilityAnalyzer analyzer(analyzer_options);

  for (int c = 0; c < kJobClassCount; ++c) {
    const JobClass cls = static_cast<JobClass>(c);
    // Fresh node per class: the characterisation is an independent
    // measurement, exactly like the paper's per-cap cold runs. It is a
    // per-cell node, so it draws from this thread's recycled cell arena
    // (DESIGN.md §17); the scope is declared first so the node dies first.
    util::CellArenaScope arena_scope;
    sim::Node node(options.machine, options.seed + static_cast<std::uint64_t>(c));
    core::CappedRunner runner(node);
    auto chunk = make_chunk_workload(cls, options.seed, 0);
    const core::AmenabilityReport report =
        analyzer.analyze(runner, *chunk, options.caps_w);
    table.set_curve(
        AmenabilityTable::from_report(cls, report, report.usable_cap_floor_w));
  }
  return table;
}

}  // namespace pcap::sched
