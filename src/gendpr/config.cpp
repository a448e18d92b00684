#include "gendpr/config.hpp"

#include <cmath>
#include <string>

namespace gendpr::core {

common::Status validate(const StudyConfig& config) {
  const struct {
    const char* name;
    double value;
    bool unit_interval;
  } fields[] = {
      {"maf_cutoff", config.maf_cutoff, false},
      {"ld_cutoff", config.ld_cutoff, false},
      {"lr_false_positive_rate", config.lr_false_positive_rate, true},
      {"lr_power_threshold", config.lr_power_threshold, true},
  };
  for (const auto& field : fields) {
    if (!std::isfinite(field.value)) {
      return common::make_error(common::Errc::invalid_argument,
                                std::string(field.name) + " is not finite");
    }
    if (field.unit_interval && (field.value < 0.0 || field.value > 1.0)) {
      return common::make_error(
          common::Errc::invalid_argument,
          std::string(field.name) + " must lie in [0, 1], got " +
              std::to_string(field.value));
    }
  }
  return common::Status::success();
}

}  // namespace gendpr::core
