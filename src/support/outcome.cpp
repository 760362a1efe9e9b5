#include "support/outcome.hpp"

#include <sstream>

namespace monomap {

const char* to_string(MapOutcome outcome) {
  switch (outcome) {
    case MapOutcome::kFeasible: return "feasible";
    case MapOutcome::kDegraded: return "degraded";
    case MapOutcome::kRefuted: return "refuted";
    case MapOutcome::kDeadline: return "deadline";
    case MapOutcome::kMemory: return "memory";
    case MapOutcome::kFault: return "fault";
    case MapOutcome::kCancelled: return "cancelled";
  }
  return "?";
}

namespace {

int stop_rank(MapOutcome outcome) {
  switch (outcome) {
    case MapOutcome::kRefuted: return 0;
    case MapOutcome::kDeadline: return 1;
    case MapOutcome::kFault: return 2;
    case MapOutcome::kMemory: return 3;
    case MapOutcome::kCancelled: return 4;
    case MapOutcome::kFeasible:
    case MapOutcome::kDegraded: break;
  }
  return -1;
}

}  // namespace

MapOutcome escalate(MapOutcome current, MapOutcome stop) {
  return stop_rank(stop) > stop_rank(current) ? stop : current;
}

int exit_code(MapOutcome outcome) {
  switch (outcome) {
    case MapOutcome::kFeasible: return 0;
    case MapOutcome::kDegraded: return 3;
    case MapOutcome::kRefuted: return 4;
    case MapOutcome::kDeadline: return 5;
    case MapOutcome::kMemory: return 6;
    case MapOutcome::kFault: return 7;
    case MapOutcome::kCancelled: return 8;
  }
  return 1;
}

std::string format_causes(const std::vector<OutcomeCause>& causes) {
  std::ostringstream out;
  for (std::size_t i = 0; i < causes.size(); ++i) {
    if (i != 0) out << "; ";
    out << causes[i].site << ": " << causes[i].detail;
  }
  return out.str();
}

}  // namespace monomap
