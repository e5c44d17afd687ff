#include "simcore/job.hpp"

#include <cmath>
#include <stdexcept>

namespace parsched {

void Job::normalize_phases() {
  if (phases.empty()) return;
  double total = 0.0;
  for (const JobPhase& p : phases) {
    if (!(p.work > 0.0)) {
      throw std::invalid_argument("job phase work must be positive");
    }
    total += p.work;
  }
  size = total;
  curve = phases.front().curve;
}

void validate_job(const Job& job) {
  if (!std::isfinite(job.release)) {
    throw std::invalid_argument("job release must be finite");
  }
  if (!(std::isfinite(job.size) && job.size > 0.0)) {
    throw std::invalid_argument("job size must be finite and positive");
  }
  if (!(std::isfinite(job.weight) && job.weight > 0.0)) {
    throw std::invalid_argument("job weight must be finite and positive");
  }
  for (const JobPhase& p : job.phases) {
    if (!(std::isfinite(p.work) && p.work > 0.0)) {
      throw std::invalid_argument("job phase work must be finite and positive");
    }
  }
}

Job make_phased_job(JobId id, double release, std::vector<JobPhase> phases) {
  Job j;
  j.id = id;
  j.release = release;
  j.phases = std::move(phases);
  j.normalize_phases();
  return j;
}

std::string to_string(JobTag::Class c) {
  switch (c) {
    case JobTag::Class::kNone:
      return "none";
    case JobTag::Class::kLong:
      return "long";
    case JobTag::Class::kShort:
      return "short";
    case JobTag::Class::kStream:
      return "stream";
  }
  return "?";
}

}  // namespace parsched
