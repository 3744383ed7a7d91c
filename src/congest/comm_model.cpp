#include "congest/comm_model.hpp"

namespace decycle::congest {

std::string model_mask_names(std::uint8_t mask) {
  std::string out;
  for (const CommModel* m : {&CommModel::congest(), &CommModel::clique()}) {
    if ((mask & model_bit(m->kind())) == 0) continue;
    if (!out.empty()) out += ", ";
    out += m->name();
  }
  return out;
}

const CommModel& CommModel::congest() {
  static constexpr CommModel model(CommModelKind::kCongest, "congest");
  return model;
}

const CommModel& CommModel::clique() {
  static constexpr CommModel model(CommModelKind::kClique, "clique");
  return model;
}

const CommModel* CommModel::find(std::string_view name) noexcept {
  for (const CommModel* m : {&congest(), &clique()}) {
    if (m->name() == name) return m;
  }
  return nullptr;
}

std::string CommModel::known_names() { return model_mask_names(kModelAll); }

}  // namespace decycle::congest
