#include "federation/fault_injector.h"

#include "common/hash.h"

namespace ooint {

namespace {

double UnitInterval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "None";
    case FaultKind::kUnavailable:
      return "Unavailable";
    case FaultKind::kDeadlineExceeded:
      return "DeadlineExceeded";
    case FaultKind::kSlowResponse:
      return "SlowResponse";
    case FaultKind::kTruncatedExtent:
      return "TruncatedExtent";
  }
  return "Unknown";
}

Fault FaultInjector::MakeFault(FaultKind kind) {
  Fault fault;
  fault.kind = kind;
  switch (kind) {
    case FaultKind::kNone:
      fault.latency_ms = 1;
      break;
    case FaultKind::kUnavailable:
      fault.latency_ms = 1;  // fast rejection
      break;
    case FaultKind::kDeadlineExceeded:
      fault.latency_ms = 0;  // connection charges its own deadline
      break;
    case FaultKind::kSlowResponse:
      fault.latency_ms = 250;  // well past any sane per-call deadline
      break;
    case FaultKind::kTruncatedExtent:
      fault.latency_ms = 1;
      fault.keep = 1;
      break;
  }
  return fault;
}

FaultInjector::AgentSchedule& FaultInjector::ScheduleFor(
    const std::string& agent) {
  AgentSchedule& schedule = schedules_[agent];
  if (seeded_ && !schedule.stream_seeded) {
    schedule.stream = seed_ ^ HashString(agent);
    schedule.stream_seeded = true;
  }
  if (latency_enabled_ && !schedule.latency_seeded) {
    // Salted so the latency stream is independent of the fault stream
    // even for the same (seed, agent) pair.
    schedule.latency_stream =
        seed_ ^ HashString(agent) ^ 0xa5a5a5a5deadbeefULL;
    schedule.latency_seeded = true;
  }
  return schedule;
}

void FaultInjector::set_latency_profile(const LatencyProfile& profile) {
  std::lock_guard<std::mutex> lock(*mu_);
  latency_ = profile;
  latency_enabled_ = true;
}

void FaultInjector::Push(const std::string& agent, Fault fault) {
  std::lock_guard<std::mutex> lock(*mu_);
  ScheduleFor(agent).scripted.push_back(fault);
}

void FaultInjector::PushN(const std::string& agent, FaultKind kind,
                          int count) {
  std::lock_guard<std::mutex> lock(*mu_);
  AgentSchedule& schedule = ScheduleFor(agent);
  for (int i = 0; i < count; ++i) schedule.scripted.push_back(MakeFault(kind));
}

void FaultInjector::AlwaysFail(const std::string& agent, FaultKind kind) {
  std::lock_guard<std::mutex> lock(*mu_);
  AgentSchedule& schedule = ScheduleFor(agent);
  schedule.always = kind;
  schedule.always_set = true;
}

Fault FaultInjector::Next(const std::string& agent) {
  std::lock_guard<std::mutex> lock(*mu_);
  AgentSchedule& schedule = ScheduleFor(agent);
  ++schedule.calls;
  if (!schedule.scripted.empty()) {
    const Fault fault = schedule.scripted.front();
    schedule.scripted.pop_front();
    return fault;
  }
  if (schedule.always_set) return MakeFault(schedule.always);
  if (seeded_ && fault_rate_ > 0) {
    if (UnitInterval(SplitMix64Next(&schedule.stream)) < fault_rate_) {
      static const FaultKind kKinds[] = {
          FaultKind::kUnavailable, FaultKind::kDeadlineExceeded,
          FaultKind::kSlowResponse, FaultKind::kTruncatedExtent};
      const std::uint64_t pick = SplitMix64Next(&schedule.stream) % 4;
      return MakeFault(kKinds[pick]);
    }
  }
  Fault ok = MakeFault(FaultKind::kNone);
  if (latency_enabled_) {
    // Successful attempt under a latency profile: shape its latency
    // from the dedicated per-agent stream.
    std::uint64_t& stream = schedule.latency_stream;
    const double roll = UnitInterval(SplitMix64Next(&stream));
    const double jitter = UnitInterval(SplitMix64Next(&stream));
    ok.latency_ms = roll < latency_.slow_fraction
                        ? latency_.slow_ms
                        : latency_.base_ms + jitter * latency_.jitter_ms;
  }
  return ok;
}

std::size_t FaultInjector::calls(const std::string& agent) const {
  std::lock_guard<std::mutex> lock(*mu_);
  auto it = schedules_.find(agent);
  return it == schedules_.end() ? 0 : it->second.calls;
}

}  // namespace ooint
