#include "core/threshold/budget.hpp"

#include "util/kv.hpp"

namespace decycle::core::threshold {

BudgetSchedule BudgetSchedule::parse(std::string_view token) {
  if (token == "none" || token == "0") return none();
  BudgetSchedule out;
  out.per_round = util::parse_list<std::size_t>("budget", token, 1, std::size_t{1} << 20);
  return out;
}

std::string BudgetSchedule::name() const {
  if (per_round.empty()) return "none";
  std::string out;
  for (const std::size_t cap : per_round) {
    if (!out.empty()) out.push_back(',');
    out += std::to_string(cap);
  }
  return out;
}

}  // namespace decycle::core::threshold
