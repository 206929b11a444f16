#include "online/config_file.hpp"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "common/string_util.hpp"

namespace dml::online {
namespace {

using Field = DriverKey::Field;

constexpr double kWeekSeconds = 7 * 86400;

const DriverKey kKeys[] = {
    {"prediction_window", {{{"window", ""}}}, 1, kWeekSeconds,
     "prediction window Wp, seconds",
     [](DriverConfig& c) -> Field { return &c.prediction_window; }},
    {"retrain_weeks", {{{"retrain-weeks", ""}}}, 1, 520,
     "retraining cadence Wr, weeks",
     [](DriverConfig& c) -> Field { return &c.retrain_weeks; }},
    {"training_weeks", {{{"training-weeks", ""}}}, 1, 520,
     "training span, weeks",
     [](DriverConfig& c) -> Field { return &c.training_weeks; }},
    {"mode", {{{"mode", ""}}}, 0, 0, "training set: sliding | whole | static",
     [](DriverConfig& c) -> Field { return &c.mode; }},
    {"use_reviser", {{{"no-reviser", "false"}}}, 0, 0,
     "prune mined rules with the reviser",
     [](DriverConfig& c) -> Field { return &c.use_reviser; }},
    {"min_roc", {}, 0, 1.5, "reviser: minimum ROC score a rule keeps",
     [](DriverConfig& c) -> Field { return &c.reviser.min_roc; }},
    {"min_support", {}, 0, 1, "association: minimum itemset support",
     [](DriverConfig& c) -> Field {
       return &c.learner.association.min_support;
     }},
    {"min_confidence", {}, 0, 1, "association: minimum rule confidence",
     [](DriverConfig& c) -> Field {
       return &c.learner.association.min_confidence;
     }},
    {"min_antecedent", {}, 1, 8, "association: minimum antecedent size",
     [](DriverConfig& c) -> Field {
       return &c.learner.association.min_antecedent;
     }},
    {"statistical_threshold", {}, 0, 1,
     "statistical expert: minimum failure probability",
     [](DriverConfig& c) -> Field {
       return &c.learner.statistical.min_probability;
     }},
    {"distribution_threshold", {}, 0, 0.999,
     "distribution expert: CDF trigger threshold",
     [](DriverConfig& c) -> Field {
       return &c.learner.distribution.cdf_threshold;
     }},
    {"enable_decision_tree", {}, 0, 0, "decision-tree expert (serial only)",
     [](DriverConfig& c) -> Field {
       return &c.learner.enable_decision_tree;
     }},
    {"enable_neural_net", {}, 0, 0, "neural-net expert (serial only)",
     [](DriverConfig& c) -> Field { return &c.learner.enable_neural_net; }},
    {"enable_correlation",
     {{{"correlation", "true"}, {"no-correlation", "false"}}}, 0, 0,
     "correlation-chain learner",
     [](DriverConfig& c) -> Field { return &c.learner.enable_correlation; }},
    {"correlation_window", {{{"correlation-window", ""}}}, 1, 86400,
     "correlation graph adjacency window, seconds",
     [](DriverConfig& c) -> Field {
       return &c.learner.correlation.graph.window;
     }},
    {"correlation_min_edge_confidence", {{{"correlation-min-edge", ""}}}, 0,
     1, "correlation: minimum per-edge confidence",
     [](DriverConfig& c) -> Field {
       return &c.learner.correlation.miner.min_edge_confidence;
     }},
    {"pd_horizon_factor", {}, 0, 100,
     "distribution warning horizon, multiple of the elapsed time",
     [](DriverConfig& c) -> Field {
       return &c.predictor.pd_horizon_factor;
     }},
    {"location_scoped", {}, 0, 0, "scope warnings to their midplane",
     [](DriverConfig& c) -> Field { return &c.predictor.location_scoped; }},
    {"adaptive_window", {}, 0, 0, "choose Wp at each retraining (serial only)",
     [](DriverConfig& c) -> Field { return &c.adaptive_window; }},
};

constexpr TrainingMode kModes[] = {TrainingMode::kSlidingWindow,
                                   TrainingMode::kWholeHistory,
                                   TrainingMode::kStatic};

std::string format_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", value);
  return buf;
}

/// A field's current value as config-file text.
std::string render_value(Field field) {
  return std::visit(
      [](const auto* value) -> std::string {
        using T = std::remove_cv_t<std::remove_pointer_t<decltype(value)>>;
        if constexpr (std::is_same_v<T, bool>) {
          return *value ? "true" : "false";
        } else if constexpr (std::is_same_v<T, TrainingMode>) {
          return std::string(to_string(*value));
        } else if constexpr (std::is_same_v<T, double>) {
          return format_number(*value);
        } else {
          return std::to_string(*value);
        }
      },
      field);
}

}  // namespace

std::span<const DriverKey> driver_keys() { return kKeys; }

std::string check_number(std::string_view value, bool integer, double lo,
                         double hi) {
  std::optional<double> parsed;
  if (!integer) {
    parsed = parse_double(value);
  } else if (const auto n = parse_long(value)) {
    parsed = static_cast<double>(*n);
  }
  if (parsed && *parsed >= lo && *parsed <= hi) return {};
  return std::string("expected ") + (integer ? "an integer" : "a number") +
         " in [" + format_number(lo) + ", " + format_number(hi) + "]";
}

std::string set_driver_key(const DriverKey& key, std::string_view value,
                           DriverConfig& config) {
  return std::visit(
      [&](auto* field) -> std::string {
        using T = std::remove_pointer_t<decltype(field)>;
        if constexpr (std::is_same_v<T, bool>) {
          if (value == "true" || value == "1" || value == "yes") {
            *field = true;
          } else if (value == "false" || value == "0" || value == "no") {
            *field = false;
          } else {
            return "expected true/false";
          }
        } else if constexpr (std::is_same_v<T, TrainingMode>) {
          const auto* mode =
              std::find_if(std::begin(kModes), std::end(kModes),
                           [&](TrainingMode m) { return to_string(m) == value; });
          if (mode == std::end(kModes)) return "expected sliding | whole | static";
          *field = *mode;
        } else {
          constexpr bool kInteger = !std::is_same_v<T, double>;
          std::string error = check_number(value, kInteger, key.lo, key.hi);
          if (!error.empty()) return error;
          if constexpr (kInteger) {
            *field = static_cast<T>(*parse_long(value));
          } else {
            *field = *parse_double(value);
          }
        }
        return {};
      },
      key.field(config));
}

std::variant<DriverConfig, ConfigError> parse_driver_config(
    std::istream& in) {
  DriverConfig config;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view view = trim(line);
    const std::size_t comment = view.find('#');
    if (comment != std::string_view::npos) {
      view = trim(view.substr(0, comment));
    }
    if (view.empty()) continue;
    const std::size_t eq = view.find('=');
    if (eq == std::string_view::npos) {
      return ConfigError{line_number, "expected 'key = value'"};
    }
    const std::string_view name = trim(view.substr(0, eq));
    const auto* key =
        std::find_if(std::begin(kKeys), std::end(kKeys),
                     [&](const DriverKey& k) { return k.key == name; });
    if (key == std::end(kKeys)) {
      return ConfigError{line_number,
                         "unknown key '" + std::string(name) + "'"};
    }
    const std::string error =
        set_driver_key(*key, trim(view.substr(eq + 1)), config);
    if (!error.empty()) {
      return ConfigError{line_number, std::string(name) + ": " + error};
    }
  }
  // The PD self-check ticks once per prediction window.
  config.clock_tick = config.prediction_window;
  return config;
}

std::string render_driver_config(const DriverConfig& config) {
  DriverConfig copy = config;
  std::string out = "# dmlfp driver configuration\n";
  for (const DriverKey& key : kKeys) {
    out += std::string(key.key) + " = " + render_value(key.field(copy)) + "\n";
  }
  return out;
}

std::string driver_flags_usage(std::string_view indent,
                               std::span<const std::string_view> only) {
  DriverConfig scratch;  // only its field types are read
  std::string out;
  for (const DriverKey& key : kKeys) {
    for (const KeyFlag& flag : key.flags) {
      if (flag.name.empty() ||
          (!only.empty() &&
           std::find(only.begin(), only.end(), flag.name) == only.end())) {
        continue;
      }
      std::string spelling =
          std::string(indent) + "--" + std::string(flag.name);
      std::string text(key.help);
      const Field field = key.field(scratch);
      if (!flag.value.empty()) {
        text = std::string(key.key) + " = " + std::string(flag.value);
      } else if (std::holds_alternative<TrainingMode*>(field)) {
        spelling += " MODE";
      } else {
        spelling += std::holds_alternative<double*>(field) ? " X" : " N";
        text += ", " + format_number(key.lo) + ".." + format_number(key.hi);
      }
      spelling.resize(
          std::max(spelling.size() + 1, indent.size() + 26), ' ');
      out += spelling + text + "\n";
    }
  }
  return out;
}

}  // namespace dml::online
